//! The campus rollup golden: two seeded campuses, each at 1 and 2
//! threads, must render their digest, merged metrics (JSON and text),
//! SLO verdicts and timeline byte for byte as checked in. The document
//! comes from `examples/campus_rollup.rs`, which `scripts/check.sh`
//! also diffs against the same file.

#[path = "../examples/campus_rollup.rs"]
#[allow(dead_code)]
mod campus_rollup;

#[test]
fn campus_rollup_matches_golden() {
    let golden = include_str!("golden/campus_rollup.txt");
    let now = campus_rollup::render();
    if let Some((i, (want, got))) = golden
        .lines()
        .zip(now.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "rollup diverges from tests/golden/campus_rollup.txt at line {}:\n  golden: {want}\n  now:    {got}",
            i + 1
        );
    }
    assert_eq!(golden.len(), now.len(), "rollup length differs from golden");
}
