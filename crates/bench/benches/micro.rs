//! Micro-benchmarks of the substrate hot paths: how fast the simulator
//! itself runs (useful when sizing sweeps) and the throughput of the
//! bitstream toolchain. Runs on the in-repo [`pdr_bench::harness`]
//! (criterion-compatible surface, no external crates).

use pdr_bench::harness::{BatchSize, Criterion, Throughput};
use pdr_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use pdr_bitstream::{Builder, Crc32, FrameAddress, Parser};
use pdr_core::system::{SystemConfig, ZynqPdrSystem};
use pdr_fabric::{AspImage, AspKind};
use pdr_sim_core::{Component, EdgeCtx, Engine, Frequency, SimDuration};

struct Ticker(u64);
impl Component for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) {
        self.0 += 1;
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim-kernel");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("clock_edges_100k", |b| {
        b.iter_batched(
            || {
                let mut e = Engine::new();
                let clk = e.add_clock_domain("clk", Frequency::from_mhz(100));
                e.add_component(Ticker(0), Some(clk));
                e
            },
            |mut e| {
                e.run_for(SimDuration::from_millis(1)); // 100k edges
                black_box(e.actions_dispatched())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let data = vec![0xA5u8; 1 << 20];
    let mut g = c.benchmark_group("crc");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("crc32_ieee_1mib", |b| {
        b.iter(|| {
            let mut crc = Crc32::ieee();
            crc.update(black_box(&data));
            black_box(crc.value())
        })
    });
    g.finish();
}

fn bench_bitstream(c: &mut Criterion) {
    let image = AspImage::generate(AspKind::AesMix, 1, 256);
    let mut builder = Builder::new(0x0372_7093);
    builder.add_frames(FrameAddress::new(0, 0, 0, 0), image.frames().to_vec());
    let bs = builder.build();

    let mut g = c.benchmark_group("bitstream");
    g.throughput(Throughput::Bytes(bs.len() as u64));
    g.bench_function("parse_256_frames", |b| {
        b.iter(|| {
            let mut p = Parser::new();
            let mut n = 0u64;
            for w in bs.words() {
                p.push_word(black_box(w), &mut |_| n += 1).expect("ok");
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_full_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("full-system");
    g.sample_size(10);
    g.bench_function("reconfigure_small_200mhz", |b| {
        b.iter_batched(
            || {
                let sys = ZynqPdrSystem::new(SystemConfig::fast_test());
                let bs = sys.make_asp_bitstream(0, AspKind::Fir16, 1);
                (sys, bs)
            },
            |(mut sys, bs)| {
                let r = sys.reconfigure(0, &bs, Frequency::from_mhz(200));
                assert!(r.crc_ok());
                black_box(r)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_crc,
    bench_bitstream,
    bench_full_system
);
criterion_main!(benches);
