//! The end-to-end binary: system allocator, no spans.

fn main() -> std::process::ExitCode {
    fro_loadgen::main_with(false)
}
