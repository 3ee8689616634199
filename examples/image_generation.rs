//! Image generation: train the VAE on synthetic digits under a REX
//! schedule and render reconstructions as ASCII art.
//!
//! ```sh
//! cargo run --release --example image_generation
//! ```

use rex::data::digits::synth_digits;
use rex::schedules::ScheduleSpec;
use rex::telemetry::Recorder;
use rex::tensor::{Prng, Tensor};
use rex::train::tasks::VaeTask;
use rex::train::{OptimizerKind, TrainConfig, Trainer};

const SIZE: usize = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = synth_digits(600, SIZE, 0);
    let test = synth_digits(8, SIZE, 1);
    let task = VaeTask::new(&train, &test, 42);
    let cfg = TrainConfig {
        lr: 2e-3,
        ..TrainConfig::new(30, OptimizerKind::adam(), ScheduleSpec::Rex, 9)
    };
    let result = Trainer::new(cfg).run(&task, &mut Recorder::disabled())?;
    for (epoch, stats) in result.history.iter().enumerate() {
        if epoch % 5 == 0 || epoch == result.history.len() - 1 {
            println!("epoch {epoch:>2}: train ELBO {:.2}", stats.train_loss);
        }
    }

    let vae = task.vae();
    let recon = vae.reconstruct(&test.images)?;
    println!("\noriginal (top) vs reconstruction (bottom):\n");
    for i in 0..4 {
        render_pair(&test.images, &recon, i, test.labels[i]);
    }

    // Generation from the prior.
    let mut zrng = Prng::new(1234);
    let z = zrng.normal_tensor(&[2, 8], 0.0, 1.0);
    let generated = vae.generate(&z)?;
    println!("samples from the prior:\n");
    for i in 0..2 {
        render_row(&generated, i);
        println!();
    }
    Ok(())
}

fn glyph(v: f32) -> char {
    match (v * 4.0).round() as i32 {
        4 => '█',
        3 => '▓',
        2 => '▒',
        1 => '░',
        _ => ' ',
    }
}

fn render_pair(orig: &Tensor, recon: &Tensor, idx: usize, label: usize) {
    println!("digit {label}:");
    for y in 0..SIZE {
        let mut line = String::new();
        for x in 0..SIZE {
            line.push(glyph(orig.data()[idx * SIZE * SIZE + y * SIZE + x]));
        }
        line.push_str("   ");
        for x in 0..SIZE {
            line.push(glyph(recon.data()[idx * SIZE * SIZE + y * SIZE + x]));
        }
        println!("  {line}");
    }
    println!();
}

fn render_row(t: &Tensor, idx: usize) {
    for y in 0..SIZE {
        let mut line = String::new();
        for x in 0..SIZE {
            line.push(glyph(t.data()[idx * SIZE * SIZE + y * SIZE + x]));
        }
        println!("  {line}");
    }
}
