//! Hand-edit an exploration checkpoint and write the result with a valid
//! checksum: either set the first pick of its first non-empty frontier
//! path (`PICK`), or set the depth of its first frontier item
//! (`depth:DEPTH`).
//!
//! A checkpoint's checksum catches accidental corruption, not deliberate
//! edits, so a resumed run must check the paths themselves. `co-ring
//! explore --resume` on an edited file must exit 1 with an `error:` line
//! naming the bad pick or depth, never panic. CI builds its bad-path
//! probes with this tool.
//!
//! ```sh
//! co-ring explore --protocol alg2 --n 7 --max-configs 3000 --checkpoint cut.ck
//! cargo run --example edit_checkpoint -- cut.ck bad.ck 9999
//! cargo run --example edit_checkpoint -- cut.ck deep.ck depth:4000000000
//! co-ring explore --protocol alg2 --n 7 --resume bad.ck   # error: …, exit 1
//! ```

use content_oblivious::net::explore::ExploreCheckpoint;
use std::path::Path;
use std::process::ExitCode;

fn edit(input: &str, output: &str, edit: &str) -> Result<(), String> {
    let mut ck = ExploreCheckpoint::read(Path::new(input))?;
    if let Some(depth) = edit.strip_prefix("depth:") {
        let depth: usize = depth
            .parse()
            .map_err(|_| format!("DEPTH must be a count, got '{depth}'"))?;
        let item = ck
            .frontier
            .first_mut()
            .ok_or("the checkpoint has an empty frontier")?;
        item.depth = depth;
    } else {
        let pick: u32 = edit
            .parse()
            .map_err(|_| format!("PICK must be a channel index, got '{edit}'"))?;
        let path = ck
            .frontier
            .iter_mut()
            .find(|item| !item.picks.is_empty())
            .ok_or("the checkpoint has no non-empty frontier path")?;
        path.picks[0] = pick;
    }
    ck.write_atomic(Path::new(output))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [input, output, what] = args.as_slice() else {
        eprintln!("usage: edit_checkpoint IN.ck OUT.ck (PICK | depth:DEPTH)");
        return ExitCode::from(2);
    };
    match edit(input, output, what) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
