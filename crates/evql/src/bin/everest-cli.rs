//! `everest-cli` — an interactive EVQL shell over the synthetic catalog.
//!
//! Usage:
//!
//! ```text
//! everest-cli                         # REPL (reads statements from stdin)
//! everest-cli -e "SELECT TOP 5 FRAMES FROM Archie"   # one-shot
//! everest-cli -e "stmt1" -e "stmt2"                  # several one-shots
//! everest-cli --scale 4 -e "..."                     # override SET scale
//! ```
//!
//! The shell keeps one [`Session`], so Phase-1 work is cached across
//! statements exactly as in a notebook workflow: the first query on a
//! dataset pays for CMDN training + populating `D0`; later queries with
//! different K / thres reuse it and only re-run Phase 2.

use everest_evql::Session;
use std::io::{BufRead, Write};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut one_shots: Vec<String> = Vec::new();
    let mut scale: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-e" | "--execute" => match args.next() {
                Some(stmt) => one_shots.push(stmt),
                None => {
                    eprintln!("error: {arg} needs a statement argument");
                    std::process::exit(2);
                }
            },
            "--scale" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => scale = Some(v),
                _ => {
                    eprintln!("error: --scale needs an integer ≥ 1");
                    std::process::exit(2);
                }
            },
            "-h" | "--help" => {
                print_help();
                return;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }

    let mut session = Session::new();
    if let Some(s) = scale {
        session.settings.scale = s;
    }

    if !one_shots.is_empty() {
        let mut failed = false;
        for stmt in &one_shots {
            failed |= !run_statement(&mut session, stmt);
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    // REPL mode.
    println!(
        "everest-cli — Top-K video analytics with probabilistic guarantees\n\
         type `SHOW DATASETS`, `HELP` or a SELECT statement; `QUIT` exits.\n\
         (current scale = 1/{}: first query per dataset trains the CMDN)\n",
        session.settings.scale
    );
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("evql> ");
        } else {
            print!("   -> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() {
            match trimmed.to_ascii_lowercase().as_str() {
                "" => continue,
                "quit" | "exit" | "q" => break,
                "help" | "\\h" | "?" => {
                    print_help();
                    continue;
                }
                _ => {}
            }
        }
        buffer.push_str(&line);
        // Execute on `;` or on a line that looks complete (single-line
        // statements dominate interactive use).
        if trimmed.ends_with(';') || !trimmed.is_empty() {
            let stmt = std::mem::take(&mut buffer);
            run_statement(&mut session, stmt.trim());
        }
    }
}

/// Executes one statement; returns `false` on error.
fn run_statement(session: &mut Session, stmt: &str) -> bool {
    if stmt.is_empty() {
        return true;
    }
    match session.execute(stmt) {
        Ok(output) => {
            println!("{}", output.render());
            true
        }
        Err(err) => {
            eprintln!("{}", err.render(stmt));
            false
        }
    }
}

fn print_help() {
    println!(
        "EVQL statements:\n\
         \n\
         SELECT TOP <k> FRAMES FROM <dataset>\n\
             [SCORE count(<class>) | tailgating() | sentiment()]\n\
             [USING everest | scan | cmdn | hog | tinyyolo | noscope]\n\
             [WITH CONFIDENCE <p>, SEED <n>, STEP <s>, BATCH <b>, RESORT <r>]\n\
         \n\
         SELECT TOP <k> WINDOWS OF <len> FRAMES [SLIDE <step>] FROM <dataset>\n\
             [WITH SAMPLE <frac>, ...]            -- §3.4 window queries\n\
         \n\
         SELECT TOP <k> FRAMES FROM <dataset> EVERY <n> FRAMES EMIT\n\
             [WITH WINDOW <w>, BUDGET <b>, ...]   -- continuous Top-K\n\
         \n\
         SELECT SKYLINE [OF <f1()>, <f2()>] FROM <dataset>\n\
             [WITH CONFIDENCE <p>, SEED <n>]      -- §5 probabilistic skyline\n\
         \n\
         EXPLAIN SELECT ...                        -- show the plan, don't run\n\
         SHOW DATASETS | SCORES | ENGINES | SETTINGS\n\
         SET scale|confidence|seed|sample|batch|resort = <value>\n\
         QUIT\n\
         \n\
         Examples:\n\
           SELECT TOP 50 FRAMES FROM Taipei-bus WITH CONFIDENCE 0.9\n\
           SELECT TOP 10 WINDOWS OF 150 FRAMES FROM Grand-Canal\n\
           SELECT TOP 5 FRAMES FROM Dashcam-California SCORE tailgating()\n\
           SELECT TOP 20 FRAMES FROM Archie USING noscope\n"
    );
}
