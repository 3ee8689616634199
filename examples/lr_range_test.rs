//! LR range test: sweep the learning rate exponentially over one training
//! pass (Smith's "LR finder"), plot the smoothed loss curve as ASCII, and
//! print the suggested initial LR — the value the REX schedule would decay
//! from.
//!
//! ```sh
//! cargo run --release --example lr_range_test
//! ```

use rex::data::images::synth_cifar10;
use rex::nn::MicroResNet;
use rex::telemetry::Recorder;
use rex::train::range_test::lr_range_test;
use rex::train::OptimizerKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = synth_cifar10(30, 10, 11);
    let model = MicroResNet::rn20_analog(10, 42);

    let result = lr_range_test(
        &model,
        &data.train_images,
        &data.train_labels,
        OptimizerKind::sgdm(),
        1e-4,
        10.0,
        120,
        32,
        7,
        &mut Recorder::disabled(),
    )?;

    // ASCII plot: loss (y) vs log-lr (x).
    let max_loss = result.curve.iter().map(|p| p.loss).fold(0.0f64, f64::max);
    let min_loss = result.curve.iter().map(|p| p.loss).fold(f64::MAX, f64::min);
    println!("smoothed loss vs learning rate (log scale):\n");
    let rows = 14;
    for r in 0..rows {
        let level = max_loss - (max_loss - min_loss) * (r as f64 / (rows - 1) as f64);
        let mut line = String::new();
        for p in result
            .curve
            .iter()
            .step_by(result.curve.len().div_ceil(64).max(1))
        {
            line.push(if p.loss >= level { '█' } else { ' ' });
        }
        println!("{level:7.3} |{line}");
    }
    println!(
        "        {}",
        "-".repeat(
            result
                .curve
                .len()
                .div_ceil(result.curve.len().div_ceil(64).max(1))
                .min(64)
        )
    );
    println!(
        "        lr: {:.1e} ... {:.1e}",
        result.curve.first().map(|p| p.lr).unwrap_or(0.0),
        result.curve.last().map(|p| p.lr).unwrap_or(0.0),
    );

    println!("\nsuggested initial LR: {:.4}", result.suggested_lr);
    if let Some(d) = result.diverged_at {
        println!("training diverged at LR {d:.4} (sweep stopped early)");
    }
    println!("\nFeed this LR into any ScheduleSpec — e.g. ScheduleSpec::Rex —");
    println!("as the eta_0 that the profile multiplies.");
    Ok(())
}
