//! `results/logs/*.txt` are what the `figures` binary printed, and what
//! EXPERIMENTS.md and README quote. CI regenerates and compares all twelve;
//! here, on every `cargo test`, the four cheap ones are regenerated and
//! README's headline numbers are checked against the logs they cite.

use std::path::Path;

use tempi_bench::figure;

fn repo_file(path: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn the_cheap_figures_render_their_recorded_logs() {
    for name in ["table1", "fig06", "fig12", "ablation_word"] {
        let render = figure(name).expect(name).render;
        let rendered = render().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            rendered == repo_file(&format!("results/logs/{name}.txt")),
            "`figures {name}` no longer prints results/logs/{name}.txt; it prints:\n{rendered}"
        );
    }
}

/// The numbers in `text`, as written (`119,829`, `0.96`, `39`).
fn numbers(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_digit() || c == ',' || c == '.'))
        .map(|token| token.trim_matches([',', '.']))
        .filter(|token| !token.is_empty())
        .collect()
}

/// Every number README's "Headline results" table gives for this
/// reproduction is one the cited figure's log reports in a summary line (a
/// line that sets a measured value beside the paper's), before the
/// `(paper: …)` part.
#[test]
fn readme_headline_numbers_are_the_logs_summary_numbers() {
    let readme = repo_file("README.md");
    let table = readme
        .split("## Headline results")
        .nth(1)
        .expect("README has a Headline results section");
    let mut checked = 0;
    for row in table.lines().take_while(|l| !l.starts_with("## ")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        // | experiment (Fig. N) | paper | this reproduction (notes) |
        let [_, experiment, _, ours, _] = cells[..] else {
            continue;
        };
        let ours = numbers(ours.split('(').next().unwrap_or(ours));
        let Some(cited) = experiment.split("(Fig. ").nth(1) else {
            continue;
        };
        let fig: usize = numbers(cited)[0].parse().expect("a figure number");
        let log = repo_file(&format!("results/logs/fig{fig:02}.txt"));
        let measured: Vec<&str> = log
            .lines()
            .filter_map(|line| line.split_once("(paper:"))
            .flat_map(|(measured, _)| numbers(measured))
            .collect();
        for n in ours {
            assert!(
                measured.contains(&n),
                "README quotes {n} for `{experiment}`; fig{fig:02}.txt's summary has {measured:?}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 2 + 2 + 2 + 2 + 2 + 6, "a headline row was skipped");
}
