//! `cxk` — cluster XML documents from the command line.
//!
//! ```text
//! cxk build  doc1.xml doc2.xml … -o dataset.cxkds   # preprocess and save
//! cxk info   dataset.cxkds                          # corpus statistics
//! cxk cluster dataset.cxkds --k 4 --f 0.5 --gamma 0.7 --m 3
//! cxk cluster docs/ --k 8                           # directly from XML
//! cxk synth  --corpus dblp --docs 1000000 -o corpus.xml  # stream a corpus to disk
//! cxk train  docs/ --k 4 -o model.cxkmodel          # cluster + snapshot
//! cxk train  corpus.xml --stream --k 4 -o model.cxkmodel # bounded-memory ingest
//! cxk classify model.cxkmodel new-doc.xml           # assign new documents
//! cxk serve  model.cxkmodel --port 7070 --threads 8 # classification server
//! cxk serve  model.cxkmodel --watch 30              # …with hot reload on change
//! ```
//!
//! `build`/`cluster`/`train` accept XML file paths and directories (scanned
//! for `*.xml`); `info`, `cluster` and `train` also accept a saved
//! `.cxkds` dataset. Clustering prints one
//! `transaction ⟨TAB⟩ document ⟨TAB⟩ cluster` row per transaction (cluster
//! `trash` is the `(k+1)`-th cluster of the paper) followed by a
//! `#`-prefixed summary. `classify --jsonl` prints one JSON object per
//! document for bulk-scoring pipelines. Everywhere an output path is
//! taken, `-o` and `--out` are interchangeable.
//!
//! Training commands run through `cxk_core`'s Engine API: invalid flags
//! and flag combinations (`--k 0`, `--gamma 2`, `--algorithm vsm --m 3`)
//! come back as `cxk: --flag: reason` messages with exit code 1, never as
//! panics.

mod commands;
mod flags;

use std::process::ExitCode;

const USAGE: &str = "\
usage: cxk <command> [args]   (cxk --help | cxk --version)

commands:
  build    <xml-file|dir>... -o <out.cxkds>    preprocess XML into a dataset
  info     <dataset.cxkds | xml-file|dir>...   print corpus statistics
  cluster  <dataset.cxkds | xml-file|dir>...   cluster transactions
           [--k N] [--f 0.5] [--gamma 0.7] [--m 1] [--seed 0]
           [--algorithm cxk|pk|vsm] [--quiet]
  assign   --base <xml-file|dir> --new <xml-file|dir>
           [--k N] [--f 0.5] [--gamma 0.7] [--seed 0]
           assign arriving documents to a base clustering
  synth    --corpus dblp|ieee|wikipedia --docs N -o <corpus.xml>
           [--seed S] [--dialects D] [--labels <out.tsv>]
           stream a synthetic newline-delimited XML corpus to disk
           (one document per line, constant memory; --labels mirrors
           the ground-truth classes to a TSV side file)
  train    <dataset.cxkds | xml-file|dir>... -o <model.cxkmodel>
           [--k N] [--f 0.5] [--gamma 0.7] [--m 1] [--seed 0] [--stream]
           cluster and snapshot a servable model; --stream ingests
           newline-delimited corpus files through the streaming SAX
           extractor (peak memory independent of corpus size)
  classify <model.cxkmodel> <xml-file|dir>... [--brute] [--jsonl] [--stream]
           assign new documents to a trained model's clusters
           (--jsonl prints one JSON object per document; --stream
           classifies newline-delimited corpus files line by line)
  serve    <model.cxkmodel> [--port 7070] [--threads 4]
           [--shards S | --tree [--branch 8] [--beam 3]
            | --remote-shards a1,a2,… [--replicas r1|r1b,-,…]
              [--remote-deadline-ms 2000]]
           [--watch SECS] [--queue-depth 256] [--keep-alive 30]
           run the HTTP classification server (POST /classify); the
           worker pool shares one index per model epoch, and the
           layout flags are mutually exclusive: --shards partitions
           it across S shards (same assignments); --tree descends a
           shared representative tree with branching factor --branch,
           keeping --beam subtrees per level (exact at full beam);
           --remote-shards scatters every classification to shard
           daemons (see shard-serve) listed in ascending range
           order — --replicas names failover alternates per shard
           (`-` = none, `|` separates several) and
           --remote-deadline-ms bounds each shard's answer;
           POST /reload (or --watch) hot-swaps a retrained snapshot
           into the running workers without dropping requests;
           connections are keep-alive by default (--keep-alive SECS
           sets the idle horizon, 0 disables reuse) and requests
           beyond --queue-depth are shed with 503 + Retry-After
  shard-serve --model <model.cxkmodel> --range A..B --listen ADDR
           run one shard daemon: serve representatives A..B (half-open,
           a sub-range of 0..k) over the cxk_p2p framed-TCP fabric for
           a `serve --remote-shards` frontend to scatter to

`-o` and `--out` are interchangeable wherever an output path is taken.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("cxk: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Err(format!("missing command\n{USAGE}"));
    };
    let rest = &args[1..];
    match command.as_str() {
        "build" => commands::build(rest),
        "info" => commands::info(rest),
        "cluster" => commands::cluster(rest),
        "assign" => commands::assign(rest),
        "synth" => commands::synth(rest),
        "train" => commands::train(rest),
        "classify" => commands::classify(rest),
        "serve" => commands::serve(rest),
        "shard-serve" => commands::shard_serve(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "version" | "--version" | "-V" => Ok(format!("cxk {}\n", env!("CARGO_PKG_VERSION"))),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).expect("help works");
        assert!(out.contains("usage: cxk"));
    }

    #[test]
    fn missing_command_errors() {
        assert!(run(&[]).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.contains("unknown command"));
    }

    #[test]
    fn help_lists_every_serve_layout_flag() {
        let out = run(&args(&["--help"])).expect("help works");
        let start = out.find("  serve ").expect("serve section");
        let end = out.find("  shard-serve").expect("shard-serve section");
        let serve = &out[start..end];
        for flag in [
            "--shards",
            "--tree",
            "--branch",
            "--beam",
            "--remote-shards",
            "--replicas",
            "--remote-deadline-ms",
        ] {
            assert!(serve.contains(flag), "{flag} missing from:\n{serve}");
        }
        assert!(!serve.contains("--brute"), "{serve}");
    }

    #[test]
    fn top_level_help_and_version() {
        for spelling in ["--help", "-h", "help"] {
            let out = run(&args(&[spelling])).expect("help works");
            assert!(out.contains("usage: cxk"), "{spelling}: {out}");
            assert!(out.contains("train"), "{spelling} lists train: {out}");
            assert!(out.contains("serve"), "{spelling} lists serve: {out}");
        }
        for spelling in ["--version", "-V", "version"] {
            let out = run(&args(&[spelling])).expect("version works");
            assert_eq!(out, format!("cxk {}\n", env!("CARGO_PKG_VERSION")));
        }
    }
}
