//! E-BB: cell-level delivery across the four link profiles, and raw
//! switch forwarding throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mits_atm::{AtmNetwork, LinkProfile, ServiceClass};
use mits_core::stream::{profile_name, stream_video_over};
use mits_sim::{SimDuration, SimTime};

fn bench_networks(c: &mut Criterion) {
    let mut group = c.benchmark_group("networks");
    group.sample_size(10);

    // Streamed video run per profile (short clip for bench time).
    for p in [
        LinkProfile::atm_oc3(),
        LinkProfile::lan_10m(),
        LinkProfile::isdn_128k(),
    ] {
        group.bench_with_input(
            BenchmarkId::new("stream_5s_mpeg", profile_name(&p)),
            &p,
            |b, p| {
                b.iter(|| {
                    stream_video_over(
                        *p,
                        SimDuration::from_secs(5),
                        1_500_000,
                        SimDuration::from_secs(1),
                        1,
                    )
                })
            },
        );
    }

    // Raw forwarding: 1 MB through a two-hop OC-3 path.
    group.throughput(Throughput::Bytes(1 << 20));
    group.bench_function("forward_1MB_two_hops_oc3", |b| {
        b.iter(|| {
            let mut net = AtmNetwork::new(1);
            let a = net.add_host("a");
            let s = net.add_switch("s");
            let d = net.add_host("d");
            net.connect(a, s, LinkProfile::atm_oc3());
            net.connect(s, d, LinkProfile::atm_oc3());
            let vc = net.open_vc(&[a, s, d], ServiceClass::Ubr, None).unwrap();
            net.send(vc, &[bytes::Bytes::from(vec![0u8; 1 << 20])])
                .unwrap();
            let deliveries = net.drain(SimTime::from_secs(10));
            assert_eq!(deliveries.len(), 1);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_networks);
criterion_main!(benches);
