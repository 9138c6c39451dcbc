//! No-op `Serialize`/`Deserialize` derives. Declaring `attributes(serde)`
//! is what makes `#[serde(default)]`, `#[serde(rename = ..)]` and friends
//! on the workspace's types legal; the derives themselves emit no code.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
