//! The traced binary: counting allocator, spans, fixed cycle count.

#[global_allocator]
static ALLOCATOR: fro_loadgen::alloc::Counting = fro_loadgen::alloc::Counting;

fn main() -> std::process::ExitCode {
    fro_loadgen::main_with(true)
}
