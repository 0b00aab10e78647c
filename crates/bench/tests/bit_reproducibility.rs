//! Build-independent output bits of the CPU back-ends.
//!
//! Every multiply-add in the kernels, the batched sincos, the taper and
//! the complex arithmetic under the FFT is written unfused
//! (`a * b + c`, DESIGN.md §6), and Rust never contracts that into an
//! FMA. A plain `cargo build --release` and a `-C target-cpu=native`
//! build must therefore produce the same bits. This test grids and
//! degrids a small seeded observation with an active Gaussian beam on
//! CpuOptimized and CpuReference, and compares an FNV-1a checksum of the
//! output bits with the committed `tests/golden/bit_reproducibility.txt`.
//! CI runs it under both builds against that one file.
//!
//! The checksums also cover the host's libm (the dataset simulation and
//! the FFT twiddles call `sin`/`cos`/`exp`), so they are pinned per
//! platform, not per build. After an intentional numerical change,
//! regenerate the file with
//!
//! ```text
//! IDG_BLESS=1 cargo test --release -p idg-bench --test bit_reproducibility
//! ```

use idg::telescope::{Dataset, GaussianBeam, Layout, SkyModel};
use idg::types::{Cf32, Observation};
use idg::{Backend, Proxy};
use std::path::PathBuf;

fn dataset() -> Dataset {
    let obs = Observation::builder()
        .stations(6)
        .timesteps(32)
        .channels(4, 150e6, 2e6)
        .grid_size(256)
        .subgrid_size(16)
        .kernel_size(5)
        .aterm_interval(16)
        .image_size(0.05)
        .build()
        .expect("valid observation");
    let layout = Layout::uniform(6, 900.0, 17);
    let sky = SkyModel::random(&obs, 4, 0.6, 19);
    let beam = GaussianBeam::new(&obs, 0.8, 23);
    Dataset::simulate(obs, &layout, sky, &beam)
}

/// 64-bit FNV-1a over the bit patterns of every real and imaginary part.
fn fnv1a<'a>(values: impl IntoIterator<Item = &'a Cf32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for part in [v.re, v.im] {
            for byte in part.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn cpu_output_bits_match_the_committed_checksums() {
    let ds = dataset();
    let mut actual = String::new();
    for backend in [Backend::CpuOptimized, Backend::CpuReference] {
        let proxy = Proxy::new(backend, ds.obs.clone()).expect("proxy");
        let plan = proxy.plan(&ds.uvw).expect("plan");
        let (grid, _) = proxy
            .grid(&plan, &ds.uvw, &ds.visibilities, &ds.aterms)
            .expect("grid");
        let (vis, _) = proxy
            .degrid(&plan, &grid, &ds.uvw, &ds.aterms)
            .expect("degrid");
        assert!(grid.power() > 0.0, "{backend:?} gridded nothing");
        let label = backend.label();
        actual.push_str(&format!("{label} grid {:016x}\n", fnv1a(grid.as_slice())));
        actual.push_str(&format!(
            "{label} degrid {:016x}\n",
            fnv1a(vis.iter().flat_map(|v| v.pols.iter()))
        ));
    }

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bit_reproducibility.txt");
    if std::env::var_os("IDG_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write checksums");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); bless it with IDG_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "output bits differ from the committed checksums: a build flag or \
         a numerical change altered the result bits"
    );
}
