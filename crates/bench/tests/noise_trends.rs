//! The conclusions of the spec-driven figures, asserted on the committed
//! goldens their specs write (`cimloop evaluate examples/specs/<name>.yaml`;
//! the bytes are pinned by `golden_files.rs`):
//!
//! - `fig09_noise`: accuracy degrades monotonically as ADC resolution
//!   drops, and degrades faster (further below the noise-free curve) at
//!   higher variation;
//! - `fig12`: ResNet18's 3×3 kernels make three-column output reuse the
//!   lowest-energy grouping.

use std::path::PathBuf;

/// The grid axes of `examples/specs/fig09_noise.yaml`: variation levels
/// rising from the ideal 0, ADC resolutions falling.
const VARIATIONS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];
const ADC_BITS: [u32; 5] = [12, 10, 8, 6, 4];

/// One cell of the `fig09_noise` grid, as the golden records it.
struct NoiseRow {
    variation: f64,
    adc_bits: u32,
    snr_db: f64,
    enob: f64,
}

/// The data rows of `results/<name>`, split into cells, after checking
/// the header line is `header`.
fn golden_rows(name: &str, header: &str) -> Vec<Vec<String>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} must exist: {e}", path.display()));
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(header), "{name}: unexpected header");
    lines
        .map(|line| line.split('\t').map(str::to_owned).collect())
        .collect()
}

fn num<T: std::str::FromStr>(cell: &str) -> T {
    cell.parse()
        .unwrap_or_else(|_| panic!("golden cell {cell:?} is not a number"))
}

fn noise_rows() -> Vec<NoiseRow> {
    let rows: Vec<NoiseRow> = golden_rows("fig09_noise.tsv", "variation\tADC bits\tSNR (dB)\tENOB")
        .iter()
        .map(|cells| NoiseRow {
            variation: num(&cells[0]),
            adc_bits: num(&cells[1]),
            snr_db: num(&cells[2]),
            enob: num(&cells[3]),
        })
        .collect();
    assert_eq!(rows.len(), VARIATIONS.len() * ADC_BITS.len(), "grid size");
    rows
}

fn snr(rows: &[NoiseRow], variation: f64, bits: u32) -> f64 {
    rows.iter()
        .find(|r| r.variation == variation && r.adc_bits == bits)
        .expect("grid covers every (variation, bits) cell")
        .snr_db
}

#[test]
fn accuracy_degrades_monotonically_as_adc_resolution_drops() {
    let rows = noise_rows();
    for &variation in &VARIATIONS {
        for pair in ADC_BITS.windows(2) {
            let (hi, lo) = (pair[0], pair[1]);
            assert!(
                snr(&rows, variation, hi) >= snr(&rows, variation, lo) - 1e-9,
                "variation {variation}: SNR rose when dropping {hi}b -> {lo}b"
            );
        }
        // And the degradation across the whole sweep is real, not flat.
        assert!(
            snr(&rows, variation, ADC_BITS[0]) > snr(&rows, variation, ADC_BITS[4]) + 3.0,
            "variation {variation}: dropping 12b -> 4b should cost several dB"
        );
    }
}

#[test]
fn accuracy_degrades_faster_at_higher_variation() {
    let rows = noise_rows();
    let ideal = VARIATIONS[0];
    for &b in &ADC_BITS {
        let baseline = snr(&rows, ideal, b);
        let mut last_loss = 0.0;
        for &variation in &VARIATIONS[1..] {
            // Degradation relative to the noise-free curve grows with
            // variation at every resolution: noisier cells always sit
            // further below the quantization-limited ceiling.
            let loss = baseline - snr(&rows, variation, b);
            assert!(
                loss > last_loss - 1e-9,
                "at {b}b, loss {loss:.3} dB did not grow past {last_loss:.3} at variation {variation}"
            );
            last_loss = loss;
        }
        // The highest variation level must cost a measurable amount even
        // at this resolution.
        assert!(
            last_loss > 0.1,
            "at {b}b, {:.2} variation cost only {last_loss:.3} dB",
            VARIATIONS[3]
        );
    }
    // Variation matters most where quantization is not the bottleneck:
    // the gap to the noise-free curve is wider at the highest resolution
    // than at the lowest.
    let noisy = VARIATIONS[3];
    let hi_bits = ADC_BITS[0];
    let lo_bits = ADC_BITS[4];
    let gap_hi = snr(&rows, ideal, hi_bits) - snr(&rows, noisy, hi_bits);
    let gap_lo = snr(&rows, ideal, lo_bits) - snr(&rows, noisy, lo_bits);
    assert!(
        gap_hi > gap_lo,
        "variation gap should widen with resolution: {gap_hi:.3} vs {gap_lo:.3} dB"
    );
}

#[test]
fn enob_never_exceeds_the_converter_resolution() {
    for r in noise_rows() {
        assert!(
            r.enob <= f64::from(r.adc_bits) + 0.5,
            "{}b ADC reported {:.2} effective bits",
            r.adc_bits,
            r.enob
        );
        assert!(r.enob >= 0.0);
        assert!(r.snr_db.is_finite());
    }
}

#[test]
fn resnet18_favors_three_column_output_reuse() {
    let rows = golden_rows(
        "fig12.tsv",
        "workload\tcolumns/output\tADC+Accum\tDAC\tOther\ttotal (norm)\tutilization",
    );
    let resnet: Vec<(u64, f64)> = rows
        .iter()
        .filter(|cells| cells[0] == "ResNet18")
        .map(|cells| (num(&cells[1]), num(&cells[5])))
        .collect();
    assert_eq!(
        resnet.iter().map(|&(g, _)| g).collect::<Vec<_>>(),
        (1..=8).collect::<Vec<_>>(),
        "ResNet18 sweeps 1..=8 columns/output"
    );
    let &(best, total) = resnet
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");
    assert_eq!(
        best, 3,
        "paper: 3x3 kernels favor 3-column reuse; got {best} ({total})"
    );
    assert_eq!(total, 0.6635, "lowest normalized ResNet18 energy");
}
