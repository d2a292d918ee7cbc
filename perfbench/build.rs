//! Records the build settings the benchmark echoes for provenance: the
//! Cargo profile and the rustc flags (where `-C target-cpu` would appear).

fn main() {
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
