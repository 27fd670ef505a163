//! Hand-edit an exploration checkpoint: set the first pick of its first
//! non-empty frontier path, and write the result with a valid checksum.
//!
//! A checkpoint's checksum catches accidental corruption, not deliberate
//! edits, so a resumed run must check the paths themselves. `co-ring
//! explore --resume` on an edited file must exit 1 with an `error:` line
//! naming the bad pick, never panic. CI builds its bad-pick probes with
//! this tool.
//!
//! ```sh
//! co-ring explore --protocol alg2 --n 7 --max-configs 3000 --checkpoint cut.ck
//! cargo run --example edit_checkpoint -- cut.ck bad.ck 9999
//! co-ring explore --protocol alg2 --n 7 --resume bad.ck   # error: …, exit 1
//! ```

use content_oblivious::net::explore::ExploreCheckpoint;
use std::path::Path;
use std::process::ExitCode;

fn edit(input: &str, output: &str, pick: &str) -> Result<(), String> {
    let pick: u32 = pick
        .parse()
        .map_err(|_| format!("PICK must be a channel index, got '{pick}'"))?;
    let mut ck = ExploreCheckpoint::read(Path::new(input))?;
    let path = ck
        .frontier
        .iter_mut()
        .find(|item| !item.picks.is_empty())
        .ok_or("the checkpoint has no non-empty frontier path")?;
    path.picks[0] = pick;
    ck.write_atomic(Path::new(output))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [input, output, pick] = args.as_slice() else {
        eprintln!("usage: edit_checkpoint IN.ck OUT.ck PICK");
        return ExitCode::from(2);
    };
    match edit(input, output, pick) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
