//! `experiments` — regenerates every table and figure of the paper's §VII.
//!
//! Usage:
//! ```text
//! experiments [--preset tiny|small|large|paper] [--threads N] <command>...
//!
//! commands:
//!   table1   fig9a fig9b fig9c fig9d fig9efg fig9h
//!   fig10a fig10b fig10c fig10d fig10e fig10f fig10g fig10hi
//!   params updquality space engines snapshot
//!   fig9     (all of figure 9)    fig10   (all of figure 10)
//!   all      (everything)
//! ```
//!
//! Results print as aligned tables and are mirrored to `results/*.csv`.

use pv_bench::{figures, Ctx, Preset};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut preset = Preset::Small;
    let mut threads: Option<usize> = None;
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                let v = it.next().unwrap_or_default();
                preset = Preset::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown preset '{v}' (tiny|small|large|paper)");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                let v = it.next().unwrap_or_default();
                threads = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads takes a number of threads, got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => commands.push(other.to_string()),
        }
    }
    if commands.is_empty() {
        print_help();
        std::process::exit(2);
    }
    let mut ctx = Ctx::new(preset);
    if let Some(t) = threads {
        ctx.threads = t.max(1);
    }
    println!(
        "# preset {:?}, |S| sweep {:?}, {} queries/point, {} build threads",
        ctx.preset,
        ctx.preset.s_sweep(),
        ctx.preset.queries(),
        ctx.threads
    );

    for cmd in commands {
        run(&ctx, &cmd);
    }
}

fn run(ctx: &Ctx, cmd: &str) {
    let t0 = std::time::Instant::now();
    match cmd {
        "table1" => figures::table1(ctx),
        "fig9a" => figures::fig9a(ctx),
        "fig9b" => figures::fig9b(ctx),
        "fig9c" => figures::fig9c(ctx),
        "fig9d" => figures::fig9d(ctx),
        "fig9efg" | "fig9e" | "fig9f" | "fig9g" => figures::fig9efg(ctx),
        "fig9h" => figures::fig9h(ctx),
        "fig10a" => figures::fig10a(ctx),
        "fig10b" => figures::fig10b(ctx),
        "fig10c" => figures::fig10c(ctx),
        "fig10d" => figures::fig10d(ctx),
        "fig10e" => figures::fig10e(ctx),
        "fig10f" => figures::fig10f(ctx),
        "fig10g" => figures::fig10g(ctx),
        "fig10hi" | "fig10h" | "fig10i" => figures::fig10hi(ctx),
        "params" => figures::params_sensitivity(ctx),
        "space" => figures::space(ctx),
        "engines" => figures::engines(ctx),
        "snapshot" => figures::snapshot(ctx),
        "updquality" => figures::update_quality(ctx),
        "fig9" => {
            figures::fig9a(ctx);
            figures::fig9b(ctx);
            figures::fig9c(ctx);
            figures::fig9d(ctx);
            figures::fig9efg(ctx);
            figures::fig9h(ctx);
        }
        "fig10" => {
            figures::fig10a(ctx);
            figures::fig10b(ctx);
            figures::fig10c(ctx);
            figures::fig10d(ctx);
            figures::fig10e(ctx);
            figures::fig10f(ctx);
            figures::fig10g(ctx);
            figures::fig10hi(ctx);
        }
        "all" => {
            run(ctx, "table1");
            run(ctx, "fig9");
            run(ctx, "fig10");
            run(ctx, "params");
            run(ctx, "updquality");
            run(ctx, "space");
            run(ctx, "engines");
            run(ctx, "snapshot");
        }
        other => {
            eprintln!("unknown command '{other}'");
            print_help();
            std::process::exit(2);
        }
    }
    eprintln!("[{cmd} done in {:?}]", t0.elapsed());
}

fn print_help() {
    println!(
        "experiments — regenerate the tables/figures of the ICDE'13 PV-index paper\n\
         \n\
         usage: experiments [--preset tiny|small|large|paper] [--threads N] <command>...\n\
         \n\
         commands: table1, fig9a..fig9h, fig9efg, fig10a..fig10i, fig10hi,\n\
         params, updquality, space, engines, snapshot, fig9, fig10, all"
    );
}
