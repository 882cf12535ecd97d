//! No-op `Serialize` / `Deserialize` derives: they only exist so that
//! `#[derive(Serialize, Deserialize)]` and `#[serde(..)]` attributes in
//! the enld crates compile; the blanket impls live in the `serde` shim.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
