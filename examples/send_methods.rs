//! Explore the Section-5 performance model: for a grid of object sizes and
//! contiguous block sizes, print which method (device / one-shot / staged /
//! pipelined) TEMPI would choose and the modeled times of the three
//! one-piece compositions.
//!
//! Run: `cargo run --example send_methods`

use tempi::prelude::*;

fn main() {
    let model = SendModel::summit_internode();
    let blocks = [8usize, 32, 128, 512, 4096, 65536];
    let sizes = [64usize << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20];

    println!("Section-5 method choice (rows: object size, cols: contiguous block)\n");
    print!("{:>10}", "");
    for b in blocks {
        print!("{b:>10}");
    }
    println!();
    for total in sizes {
        print!("{:>10}", format!("{} KiB", total >> 10));
        for block in blocks {
            let m = model.choose(total, block, 4).method;
            print!(
                "{:>10}",
                match m {
                    Method::Device => "device",
                    Method::OneShot => "one-shot",
                    Method::Staged => "staged",
                    Method::Pipelined => "pipelined",
                }
            );
        }
        println!();
    }

    println!("\nmodeled breakdown for a 4 MiB object with 32 B blocks:");
    let (bytes, block) = (4 << 20, 32);
    for (name, b) in [
        ("device ", model.t_device(bytes, block, 4)),
        ("one-shot", model.t_oneshot(bytes, block, 4)),
        ("staged  ", model.t_staged(bytes, block, 4)),
    ] {
        println!(
            "  {name}: pack {:>10} + transfer {:>10} + unpack {:>10} = {}",
            format!("{}", b.pack),
            format!("{}", b.transfer),
            format!("{}", b.unpack),
            b.total()
        );
    }
    println!(
        "\namong the one-piece methods device wins for large, finely-strided\n\
         objects, one-shot for smaller or more contiguous ones, and staged\n\
         never (paper §5/§6.3); cut into chunks (§8), staged overlaps its\n\
         stages and takes over above roughly a megabyte."
    );
}
