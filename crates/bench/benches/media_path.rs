//! Per-stage media-path benches: the AAL5 kernels (CRC-32, segmentation,
//! reassembly) and raw switch advance, isolated so a regression in one
//! stage shows up on its own line instead of hiding inside an end-to-end
//! number. Stage names carry the `net.` prefix the flame profiler
//! (`tables --exp obs`) uses to attribute time to the atm layer.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mits_atm::aal5::{cells_for, crc32, crc32_slice16, reassemble_run, segment_run};
use mits_atm::{reassemble, segment, AtmNetwork, LinkProfile, ServiceClass};
use mits_sim::SimTime;

/// One video-scale PDU: 64 KiB, the order of a clip chunk on the wire.
const PDU: usize = 64 * 1024;

fn bench_media_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("media_path");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(PDU as u64));

    let payload = vec![0xA5u8; PDU];

    // Stage 1: the CRC-32 kernel alone — it runs over every PDU twice
    // (segment + reassemble), so this is the hot inner loop. Each
    // implementation tier gets its own line so a dispatch change (SIMD
    // lane lost, table rebuilt) shows up against its fallbacks.
    group.bench_function("net.aal5.crc32_64KiB", |b| {
        b.iter(|| crc32(criterion::black_box(&payload)))
    });
    group.bench_function("net.aal5.crc32_slice16_64KiB", |b| {
        b.iter(|| crc32_slice16(criterion::black_box(&payload)))
    });

    // Stage 2: segmentation (copy + trailer + CRC + cell views).
    group.bench_function("net.aal5.segment_64KiB", |b| {
        b.iter(|| segment(0, 100, 0, criterion::black_box(&payload)))
    });

    // Stage 3: reassembly (gather + length/CRC validation), from cells
    // prepared outside the timed loop.
    let cells = segment(0, 100, 0, &payload);
    assert_eq!(cells.len(), cells_for(PDU));
    group.bench_function("net.aal5.reassemble_64KiB", |b| {
        b.iter(|| reassemble(criterion::black_box(&cells)).unwrap())
    });

    // Stage 3b: the gather run image the train path rides — a CRC
    // across the PDU's parts (no copy), and the checking pass that hands
    // the parts back, without materializing cells.
    let pdu = [Bytes::from(payload.clone())];
    group.bench_function("net.aal5.segment_run_64KiB", |b| {
        b.iter(|| segment_run(criterion::black_box(&pdu)))
    });
    let run = segment_run(&pdu);
    group.bench_function("net.aal5.reassemble_run_64KiB", |b| {
        b.iter(|| reassemble_run(criterion::black_box(run.clone())).unwrap())
    });

    // Stage 4: switch advance — one PDU through a two-hop OC-3 path.
    // With trains engaged the event loop sees one run per hop; pinned
    // per-cell it pays 2n events per hop. Both lines are kept so the
    // batched/exact ratio is visible in the bench history.
    for (name, per_cell) in [
        ("net.switch.advance_64KiB_two_hops_oc3", false),
        ("net.switch.advance_64KiB_two_hops_oc3_per_cell", true),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut net = AtmNetwork::new(1);
                if per_cell {
                    net.force_per_cell();
                }
                let a = net.add_host("a");
                let s = net.add_switch("s");
                let d = net.add_host("d");
                net.connect(a, s, LinkProfile::atm_oc3());
                net.connect(s, d, LinkProfile::atm_oc3());
                let vc = net.open_vc(&[a, s, d], ServiceClass::Ubr, None).unwrap();
                net.send(vc, &pdu).unwrap();
                let deliveries = net.drain(SimTime::from_secs(10));
                assert_eq!(deliveries.len(), 1);
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_media_path);
criterion_main!(benches);
