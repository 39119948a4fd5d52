//! `lopacityd` binary: bind, announce the address, serve until SIGTERM
//! (graceful drain) or SIGKILL (the journal recovers on the next boot).

use lopacity_daemon::config::usage;
use lopacity_daemon::server::boot_and_serve;
use lopacity_daemon::DaemonConfig;
use lopacity_util::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h" || a == "help") {
        print!("{}", usage("lopacityd"));
        return;
    }
    let args = Args::parse(argv);
    if let Err(e) = DaemonConfig::from_args(&args).and_then(|config| boot_and_serve(&config)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
