fn main() -> std::process::ExitCode {
    hpm_benchmark::cli::main()
}
