//! End-to-end tests of the `asm` CLI binary: generate → info → solve →
//! analyze pipelines over both the JSON and text formats, the exit-code
//! contract (0 success / 2 usage / 3 input / 4 solve), `asm solve`'s
//! agreement with the service's solve (same matchings, same refusals),
//! and the `serve` subcommand's wire round trip.

use asm_service::metrics::FlushPending;
use asm_service::{
    codec, CodecKind, CompletionSink, FrameHandler, InstanceSpec, Op, Reply, Request, Service,
    ServiceConfig, SolveBody,
};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

/// Exit code for usage errors (unknown subcommand/flag, bad flag value).
const EXIT_USAGE: i32 = 2;
/// Exit code for input/I-O errors (unreadable or malformed files).
const EXIT_INPUT: i32 = 3;
/// Exit code for solve errors (engine failures, unverifiable matchings).
const EXIT_SOLVE: i32 = 4;

fn asm_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asm"))
}

fn tmp(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("asm-cli-test-{}-{name}", std::process::id()));
    dir
}

#[test]
fn generate_solve_analyze_json_pipeline() {
    let inst = tmp("market.json");
    let matching = tmp("matching.json");

    let out = asm_bin()
        .args(["generate", "--family", "regular", "--n", "24", "--d", "4"])
        .args(["--seed", "7", "--out", inst.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = asm_bin()
        .args(["solve", "--input", inst.to_str().unwrap()])
        .args(["--eps", "0.5", "--backend", "greedy"])
        .args(["--out", matching.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(
        log.contains("stability:"),
        "solve must print a report: {log}"
    );

    let out = asm_bin()
        .args(["analyze", "--input", inst.to_str().unwrap()])
        .args(["--matching", matching.to_str().unwrap(), "--eps", "0.5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stability"), "{text}");
    assert!(text.contains("welfare"), "{text}");
    assert!(text.contains("(1-0.5)-stable : true"), "{text}");

    std::fs::remove_file(&inst).ok();
    std::fs::remove_file(&matching).ok();
}

#[test]
fn text_format_round_trip_through_cli() {
    let inst = tmp("chain.txt");
    let out = asm_bin()
        .args(["generate", "--family", "chain", "--n", "8"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let contents = std::fs::read_to_string(&inst).unwrap();
    assert!(contents.starts_with("asm-instance v1"));

    let out = asm_bin()
        .args(["info", "--input", inst.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("complete    : false"));
    std::fs::remove_file(&inst).ok();
}

#[test]
fn solve_supports_every_algorithm() {
    let inst = tmp("algos.json");
    asm_bin()
        .args(["generate", "--family", "complete", "--n", "12"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("binary runs");
    for algo in ["asm", "rand-asm", "almost-regular", "gs", "truncated-gs"] {
        let out = asm_bin()
            .args(["solve", "--input", inst.to_str().unwrap()])
            .args(["--algorithm", algo, "--eps", "1.0"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_file(&inst).ok();
}

#[test]
fn help_prints_usage_successfully() {
    let mut lines: Vec<Vec<&str>> = vec![vec!["help"], vec!["--help"], vec!["-h"]];
    for subcommand in ["generate", "solve", "analyze", "info", "serve", "route"] {
        lines.push(vec![subcommand, "--help"]);
        // `--help` ends the parse, so what follows it is never read.
        lines.push(vec![subcommand, "-h", "--bogus"]);
    }
    for args in lines {
        let out = asm_bin().args(&args).output().expect("binary runs");
        assert!(out.status.success(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn text_format_full_pipeline_matches_json_pipeline() {
    // The same instance generated in both formats must drive solve +
    // analyze to identical results: the matchings (deterministic seed,
    // deterministic backend) must be byte-identical JSON.
    let inst_json = tmp("roundtrip.json");
    let inst_txt = tmp("roundtrip.txt");
    for path in [&inst_json, &inst_txt] {
        let out = asm_bin()
            .args(["generate", "--family", "regular", "--n", "16", "--d", "4"])
            .args(["--seed", "11", "--out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut matchings = Vec::new();
    for (inst, name) in [(&inst_json, "m-json.json"), (&inst_txt, "m-txt.json")] {
        let matching = tmp(name);
        let out = asm_bin()
            .args(["solve", "--input", inst.to_str().unwrap()])
            .args(["--eps", "1.0", "--backend", "greedy", "--seed", "5"])
            .args(["--out", matching.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );

        let out = asm_bin()
            .args(["analyze", "--input", inst.to_str().unwrap()])
            .args(["--matching", matching.to_str().unwrap(), "--eps", "1.0"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // f64 Display renders eps 1.0 as "1".
        assert!(String::from_utf8_lossy(&out.stdout).contains("(1-1)-stable : true"));

        matchings.push(std::fs::read_to_string(&matching).unwrap());
        std::fs::remove_file(&matching).ok();
    }
    assert_eq!(
        matchings[0], matchings[1],
        "text and JSON instance formats must solve identically"
    );
    std::fs::remove_file(&inst_json).ok();
    std::fs::remove_file(&inst_txt).ok();
}

#[test]
fn malformed_inputs_fail_cleanly() {
    // Every malformed input must produce a nonzero exit and an "error:"
    // diagnostic — never a panic (which would print "panicked at").
    let cases: [(&str, &str); 3] = [
        ("bad.json", "{ this is not json"),
        ("bad.txt", "not an asm-instance header\n1 2 3"),
        ("trunc.json", "{\"num_women\": 4"),
    ];
    for (name, contents) in cases {
        let path = tmp(name);
        std::fs::write(&path, contents).unwrap();
        for cmd in ["solve", "info"] {
            let out = asm_bin()
                .args([cmd, "--input", path.to_str().unwrap()])
                .output()
                .expect("binary runs");
            assert!(!out.status.success(), "{cmd} accepted {name}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("error:"), "{cmd} on {name}: {err}");
            assert!(!err.contains("panicked"), "{cmd} on {name}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn analyze_rejects_malformed_and_invalid_matchings() {
    let inst = tmp("analyze-inst.json");
    let out = asm_bin()
        .args(["generate", "--family", "complete", "--n", "6"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Malformed matching JSON.
    let garbled = tmp("garbled-matching.json");
    std::fs::write(&garbled, "[[0, 1], [").unwrap();
    let out = asm_bin()
        .args(["analyze", "--input", inst.to_str().unwrap()])
        .args(["--matching", garbled.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    // Well-formed JSON that is not a valid matching for the instance:
    // player 0 partnered with itself (verify_matching must reject it,
    // not the parser).
    let wrong = tmp("wrong-matching.json");
    std::fs::write(
        &wrong,
        "{\"partner\":[0,null,null,null,null,null,null,null,null,null,null,null]}",
    )
    .unwrap();
    let out = asm_bin()
        .args(["analyze", "--input", inst.to_str().unwrap()])
        .args(["--matching", wrong.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "self-pairing must be rejected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    for p in [&inst, &garbled, &wrong] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn bad_invocations_fail_with_usage() {
    let out = asm_bin().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = asm_bin()
        .args(["generate", "--family", "nonsense", "--n", "4"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());

    let out = asm_bin()
        .args(["solve", "--input", "/nonexistent/file.json"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn unknown_and_repeated_flags_are_usage_errors() {
    let inst = tmp("flags-inst.json");
    let out = asm_bin()
        .args(["generate", "--family", "regular", "--n", "8", "--d", "3"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let path = inst.to_str().unwrap();
    let mut cases = vec![
        // A typo must not silently solve at the default eps.
        (vec!["solve", "--input", path, "--epss", "0.001"], "--epss"),
        (vec!["info", "--input", path, "--bogus", "1"], "--bogus"),
        // A flag another subcommand reads is still unknown here.
        (vec!["info", "--input", path, "--eps", "0.5"], "--eps"),
        (vec!["info", "--input", path, "--input", path], "--input"),
    ];
    // Every subcommand refuses an unknown flag, a repeated flag, a flag
    // without its value, a value that does not parse, and a stray
    // argument, naming it, before it reads a file or binds a socket.
    for (subcommand, flag, malformed) in [
        (
            "generate",
            "--family",
            vec!["--family", "complete", "--n", "x"],
        ),
        ("solve", "--input", vec!["--eps", "x"]),
        ("analyze", "--matching", vec!["--eps", "x"]),
        ("info", "--input", vec![]),
        ("serve", "--addr", vec!["--workers", "x"]),
        (
            "route",
            "--backends",
            vec!["--backends", "a:1", "--forwarders", "x"],
        ),
    ] {
        cases.push((vec![subcommand, "--frobnicate", "1"], "--frobnicate"));
        cases.push((vec![subcommand, flag, "a", flag, "b"], flag));
        cases.push((vec![subcommand, flag], flag));
        cases.push((vec![subcommand, flag, "a", "stray"], "`stray`"));
        // `info` has no flag with a typed value.
        if let Some(&name) = malformed.iter().rev().nth(1) {
            cases.push(([vec![subcommand], malformed].concat(), name));
        }
    }
    for (args, named) in cases {
        let out = asm_bin().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(named),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    std::fs::remove_file(&inst).ok();
}

#[test]
fn exit_codes_distinguish_usage_from_input_from_solve() {
    // Usage errors: exit 2.
    for args in [
        vec![],
        vec!["dance"],
        vec!["solve"], // --input missing
        vec!["generate", "--family", "nonsense", "--n", "4"],
        vec!["generate", "--family", "complete", "--n", "nope"],
        vec!["generate", "--family"], // flag without value
        vec!["generate", "nodashes"],
    ] {
        let out = asm_bin().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?} must print usage"
        );
    }

    // Input errors: exit 3.
    let garbled = tmp("exit-code-garbled.json");
    std::fs::write(&garbled, "{ not json").unwrap();
    for args in [
        vec!["solve", "--input", "/nonexistent/file.json"],
        vec!["info", "--input", garbled.to_str().unwrap()],
        vec!["solve", "--input", garbled.to_str().unwrap()],
    ] {
        let out = asm_bin().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(EXIT_INPUT), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}: input errors must not dump usage"
        );
    }
    std::fs::remove_file(&garbled).ok();

    // Solve errors: exit 4 (a well-formed matching the verifier rejects).
    let inst = tmp("exit-code-inst.json");
    let out = asm_bin()
        .args(["generate", "--family", "complete", "--n", "6"])
        .args(["--out", inst.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let wrong = tmp("exit-code-wrong-matching.json");
    std::fs::write(
        &wrong,
        "{\"partner\":[0,null,null,null,null,null,null,null,null,null,null,null]}",
    )
    .unwrap();
    let out = asm_bin()
        .args(["analyze", "--input", inst.to_str().unwrap()])
        .args(["--matching", wrong.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(EXIT_SOLVE));
    std::fs::remove_file(&inst).ok();
    std::fs::remove_file(&wrong).ok();
}

#[test]
fn generate_refuses_recipes_the_service_refuses() {
    for (args, reason) in [
        (
            vec!["--family", "regular", "--n", "8", "--d", "20"],
            "cannot exceed n = 8",
        ),
        (
            vec!["--family", "noisy-master", "--n", "8", "--noise", "1e300"],
            "MAX_NOISE",
        ),
        (
            vec!["--family", "zipf", "--n", "8", "--s", "-1"],
            "zipf exponent s must be finite and nonnegative",
        ),
    ] {
        let out = asm_bin()
            .arg("generate")
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("error:") && err.contains(reason),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed an instance");
    }
}

#[test]
fn serve_round_trips_health_solve_and_shutdown() {
    use std::io::{BufRead, BufReader, Write};

    let mut child = asm_bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("asm-service listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };

    let health = exchange("{\"id\":1,\"op\":\"health\"}");
    assert!(health.contains("\"reply\":\"health\""), "{health}");
    let solve = exchange(
        "{\"id\":2,\"op\":\"solve\",\"body\":{\"instance\":{\"Generator\":{\"Complete\":{\"n\":8,\"seed\":3}}},\"algorithm\":\"asm\",\"eps\":0.5,\"delta\":0.1,\"seed\":1,\"backend\":\"greedy\",\"deadline_ms\":0,\"cycles\":0}}",
    );
    assert!(solve.contains("\"reply\":\"solved\""), "{solve}");
    let bye = exchange("{\"id\":3,\"op\":\"shutdown\"}");
    assert!(bye.contains("\"reply\":\"shutting_down\""), "{bye}");

    let status = child.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
    let drained = lines.next().unwrap().unwrap();
    assert!(drained.contains("drained"), "{drained}");
}

/// A server child, killed if its test fails before it exits.
struct Server(std::process::Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `asm ARGS...` under `sh -c 'ulimit LIMIT && exec asm ARGS...'`,
/// so the limit binds the child alone.
fn asm_under_ulimit(limit: &str, args: &[&str]) -> Command {
    let mut command = Command::new("sh");
    command
        .arg("-c")
        .arg(format!("ulimit {limit} && exec \"$0\" \"$@\""))
        .arg(env!("CARGO_BIN_EXE_asm"))
        .args(args);
    command
}

#[test]
fn serve_does_not_spin_when_out_of_descriptors() {
    use std::io::{BufRead, BufReader, Write};

    // A 40-descriptor limit and 60 clients: the connections the server
    // cannot accept stay queued, and its listener stays readable. The
    // reactor must not poll it in a loop while no descriptor frees.
    let mut server = Server(
        asm_under_ulimit(
            "-n 40",
            &["serve", "--addr", "127.0.0.1:0", "--workers", "1"],
        )
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("sh runs"),
    );
    let mut lines = BufReader::new(server.0.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("asm-service listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let mut clients: Vec<_> = (0..60)
        .map(|_| std::net::TcpStream::connect(&addr).unwrap())
        .collect();

    // utime + stime of the server, in clock ticks (100 per second).
    let pid = server.0.id();
    let cpu_ticks = || -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
        let fields: Vec<&str> = stat
            .rsplit(')')
            .next()
            .unwrap()
            .split_whitespace()
            .collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    };
    std::thread::sleep(std::time::Duration::from_millis(300));
    let before = cpu_ticks();
    std::thread::sleep(std::time::Duration::from_secs(1));
    let spent = cpu_ticks() - before;
    assert!(
        spent < 50,
        "the server burned {spent} ticks of CPU in 1 s while out of descriptors"
    );

    // Closing clients frees descriptors, and the queue drains.
    clients.drain(..30);
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let health = exchange("{\"id\":1,\"op\":\"health\"}");
    assert!(health.contains("\"reply\":\"health\""), "{health}");
    let bye = exchange("{\"id\":2,\"op\":\"shutdown\"}");
    assert!(bye.contains("\"reply\":\"shutting_down\""), "{bye}");
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
}

#[test]
fn serve_gives_back_a_large_frame_buffer_while_its_connection_stays_open() {
    use std::io::{BufRead, BufReader, Write};

    let mut server = Server(
        asm_bin()
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs"),
    );
    let mut lines = BufReader::new(server.0.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("asm-service listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    // The server's resident set, in KiB.
    let pid = server.0.id();
    let rss_kib = || -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
        let kib = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
        kib.unwrap().trim_end_matches("kB").trim().parse().unwrap()
    };

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |frame: &[u8]| {
        writer.write_all(frame).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let health = exchange(b"{\"id\":1,\"op\":\"health\"}\n");
    assert!(health.contains("\"reply\":\"health\""), "{health}");
    let before = rss_kib();

    // A `health` frame carrying a 60 MiB string, answered as a plain
    // `health`; the probe behind it shows the reactor has moved on.
    let mut large = b"{\"id\":2,\"op\":\"health\",\"body\":\"".to_vec();
    large.resize(large.len() + (60 << 20), b'x');
    large.extend_from_slice(b"\"}\n");
    let reply = exchange(&large);
    drop(large);
    assert!(
        reply.starts_with("{\"id\":2,\"reply\":\"health\""),
        "{reply}"
    );
    let probe = exchange(b"{\"id\":3,\"op\":\"health\"}\n");
    assert!(probe.contains("\"reply\":\"health\""), "{probe}");
    let grown = rss_kib().saturating_sub(before);
    assert!(
        grown < 16 << 10,
        "the server kept {grown} KiB after a 60 MiB frame on an open connection"
    );

    let bye = exchange(b"{\"id\":4,\"op\":\"shutdown\"}\n");
    assert!(bye.contains("\"reply\":\"shutting_down\""), "{bye}");
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
}

/// The address-space cap the two small-ε tests run `asm` under, in KiB
/// (about 1.4 GiB). Engine state that grew with k = ⌈8/ε⌉ per player
/// would be far past it at these ε: 4 bytes per quantile and player is
/// 3.2 GB at ε = 2·10⁻⁵ on 2,048 players.
const MEMORY_CAP: &str = "-v 1500000";

#[test]
fn serve_refuses_a_tiny_eps_and_keeps_serving_under_a_memory_cap() {
    use std::io::{BufRead, BufReader, Write};

    // At ε = 1e-9, k = ⌈8/ε⌉ = 8·10⁹ quantiles per player.
    let mut server = Server(
        asm_under_ulimit(
            MEMORY_CAP,
            &["serve", "--addr", "127.0.0.1:0", "--workers", "1"],
        )
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("sh runs"),
    );
    let mut lines = BufReader::new(server.0.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("asm-service listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut read_reply = || {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };

    // The solve and a health probe pipelined behind it, in one write.
    let solve = r#"{"id":1,"op":"solve","body":{"instance":{"Generator":{"Regular":{"n":8,"d":3,"seed":7}}},"algorithm":"asm","eps":1e-9,"delta":0.1,"seed":42,"backend":"greedy","deadline_ms":0,"cycles":0}}"#;
    write!(writer, "{solve}\n{{\"id\":2,\"op\":\"health\"}}\n").unwrap();
    let refusal = read_reply();
    assert!(
        refusal.starts_with(r#"{"id":1,"reply":"error","body":{"kind":"invalid","message":"#)
            && refusal.contains("epsilon 1e-9 is below 1.5258789062527756e-5"),
        "{refusal}"
    );
    let health = read_reply();
    assert!(
        health.starts_with(r#"{"id":2,"reply":"health""#),
        "{health}"
    );
    writeln!(writer, r#"{{"id":3,"op":"shutdown"}}"#).unwrap();
    let bye = read_reply();
    assert!(bye.contains("\"reply\":\"shutting_down\""), "{bye}");
    let status = server.0.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
    let drained = lines.next().unwrap().unwrap();
    assert!(drained.contains("drained"), "{drained}");
}

#[test]
fn solve_at_a_small_eps_fits_under_a_memory_cap() {
    // ε = 2·10⁻⁵ is above the floor: k = 400,000 quantiles.
    let input = tmp("small-eps-instance.json");
    let status = asm_bin()
        .args([
            "generate", "--family", "regular", "--n", "1024", "--d", "64",
        ])
        .args(["--seed", "3", "--out", input.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());
    let out = asm_under_ulimit(MEMORY_CAP, &["solve", "--input", input.to_str().unwrap()])
        .args(["--eps", "2e-5", "--backend", "greedy"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&input);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("solved:"), "{stderr}");
}

/// Writes a `regular --n 24 --d 4 --seed 7` instance to `name` and
/// returns its path and the instance.
fn regular_instance(name: &str) -> (PathBuf, almost_stable::Instance) {
    let path = tmp(name);
    let out = asm_bin()
        .args(["generate", "--family", "regular", "--n", "24", "--d", "4"])
        .args(["--seed", "7", "--out", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let inst = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    (path, inst)
}

/// The `asm solve` defaults, as a wire body over `inst`.
fn cli_body(inst: &almost_stable::Instance, algorithm: &str) -> SolveBody {
    SolveBody {
        instance: InstanceSpec::Inline(inst.clone()),
        algorithm: algorithm.to_string(),
        eps: 0.5,
        delta: 0.1,
        seed: 0,
        backend: "hkp".to_string(),
        deadline_ms: 0,
        cycles: 0,
    }
}

fn service() -> Arc<Service> {
    Service::start(ServiceConfig::default())
}

/// The service's reply to one `solve` of `body`, sent as a binary frame:
/// unlike JSON, the binary codec carries a NaN or infinite ε. Only
/// inline replies (refusals) are expected here.
fn refusal(service: &Arc<Service>, body: SolveBody) -> Reply {
    struct Unused;
    impl CompletionSink for Unused {
        fn complete(&self, _: u64, _: u64, _: Vec<u8>, _: Option<FlushPending>) {}
    }
    let sink: Arc<dyn CompletionSink> = Arc::new(Unused);
    let request = Request {
        id: Some(1),
        op: Op::Solve(body),
    };
    let frame =
        asm_service::framing::Frame::Binary(codec::encode_payload(CodecKind::Binary, &request));
    match Arc::clone(service).handle_frame(&frame, std::time::Instant::now(), 0, 0, &sink) {
        // An inline reply is framed: skip the u32 length prefix.
        asm_service::service::FrameOutcome::Reply(bytes) => {
            codec::parse_response_payload(CodecKind::Binary, &bytes[4..])
                .unwrap()
                .reply
        }
        _ => panic!("the service admitted the solve"),
    }
}

#[test]
fn solve_prints_the_matching_the_service_replies_with() {
    let (path, inst) = regular_instance("wire-parity.json");
    let service = service();
    for algorithm in ["asm", "rand-asm", "almost-regular", "gs", "truncated-gs"] {
        let mut body = cli_body(&inst, algorithm);
        body.seed = 3;
        body.backend = "greedy".to_string();
        let line = asm_service::protocol::render(&Request {
            id: Some(1),
            op: Op::Solve(body),
        });
        let reply = asm_service::protocol::parse_response(&service.handle_line(&line)).unwrap();
        let Reply::Solved(result) = reply.reply else {
            panic!("{algorithm}: expected solved, got {:?}", reply.reply);
        };
        let out = asm_bin()
            .args(["solve", "--input", path.to_str().unwrap()])
            .args([
                "--algorithm",
                algorithm,
                "--seed",
                "3",
                "--backend",
                "greedy",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{algorithm}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim_end(),
            serde_json::to_string(&result.matching).unwrap(),
            "{algorithm}"
        );
        let solved = format!(
            "solved: matched {}, |E| {}, blocking pairs {}, rounds {}, messages {}",
            result.matched, result.num_edges, result.blocking_pairs, result.rounds, result.messages
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(solved.as_str()), "{algorithm}");
    }
    service.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn solve_refuses_requests_the_service_refuses() {
    let (path, inst) = regular_instance("wire-refusals.json");
    let mut cases: Vec<(Vec<&str>, SolveBody)> =
        vec![(vec!["--algorithm", "quantum"], cli_body(&inst, "quantum"))];
    for algorithm in ["asm", "rand-asm", "almost-regular", "gs", "truncated-gs"] {
        let mut body = cli_body(&inst, algorithm);
        body.backend = "magic".to_string();
        cases.push((vec!["--algorithm", algorithm, "--backend", "magic"], body));
    }
    for algorithm in ["asm", "rand-asm", "almost-regular"] {
        for eps in ["0", "-1", "nan", "inf"] {
            let mut body = cli_body(&inst, algorithm);
            body.eps = eps.parse().unwrap();
            cases.push((vec!["--algorithm", algorithm, "--eps", eps], body));
        }
    }
    for algorithm in ["rand-asm", "almost-regular"] {
        for delta in ["0", "1"] {
            let mut body = cli_body(&inst, algorithm);
            body.delta = delta.parse().unwrap();
            cases.push((vec!["--algorithm", algorithm, "--delta", delta], body));
        }
    }
    let service = service();
    for (args, body) in cases {
        let Reply::Error(err) = refusal(&service, body) else {
            panic!("{args:?}: the service did not refuse");
        };
        assert_eq!(err.kind, asm_service::kind::INVALID, "{args:?}");
        let out = asm_bin()
            .args(["solve", "--input", path.to_str().unwrap()])
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().next(),
            Some(format!("error: {}", err.message).as_str()),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a matching");
    }
    service.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_refuses_eps_the_service_refuses() {
    let (path, _) = regular_instance("analyze-eps.json");
    let matching = tmp("analyze-eps-matching.json");
    let out = asm_bin()
        .args(["solve", "--input", path.to_str().unwrap()])
        .args(["--out", matching.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let analyze = |eps: &str| {
        asm_bin()
            .args(["analyze", "--input", path.to_str().unwrap()])
            .args(["--matching", matching.to_str().unwrap(), "--eps", eps])
            .output()
            .expect("binary runs")
    };
    for eps in ["nan", "-1", "inf", "-inf"] {
        let out = analyze(eps);
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "--eps {eps}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: analyze eps must be finite and >= 0, got "),
            "--eps {eps}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--eps {eps} printed a report");
    }
    // ε = 0 asks for exact stability; the wire accepts it too.
    let out = analyze("0");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("(1-0)-stable :"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&matching).ok();
}
