//! Quickstart: start an allocation daemon, drive a tenant over the
//! wire, and compare against the in-process session API.
//!
//! Run with `cargo run -p dbp-server --example client_quickstart`.

use dbp_numeric::rat;
use dbp_proto::{ItemId, TickGrid};
use dbp_server::{Client, DbpServer, ServerConfig};

fn main() {
    // An in-process daemon on a loopback port; in production this is
    // `mindbp serve --listen 0.0.0.0:9500 --journal-dir journals/`.
    let server = DbpServer::start(ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();
    println!("daemon listening on {addr}");

    // The builder mirrors `Session::builder`: algorithm, grid, telemetry.
    let mut client = Client::builder("firstfit")
        .tenant("quickstart")
        .grid(TickGrid::new(1, 8))
        .without_journal()
        .connect(addr)
        .expect("connect");

    // Placement is synchronous: frame in, bin out.
    let b0 = client
        .arrive(ItemId(0), rat(1, 2), rat(0, 1))
        .expect("place");
    let b1 = client
        .arrive(ItemId(1), rat(5, 8), rat(1, 1))
        .expect("place");
    let b2 = client
        .arrive(ItemId(2), rat(3, 8), rat(1, 1))
        .expect("place");
    println!("placed: {b0:?} {b1:?} {b2:?}");

    client.depart(ItemId(0), rat(2, 1)).expect("depart");
    client.depart(ItemId(1), rat(3, 1)).expect("depart");
    client.depart(ItemId(2), rat(7, 2)).expect("depart");

    let metrics = client.metrics().expect("metrics");
    println!(
        "events {} | peak open bins {} | usage time {}",
        metrics.events, metrics.peak_open_bins, metrics.usage_time
    );

    let outcomes = client.finish().expect("finish");
    println!(
        "finished: {} bins, usage time {}",
        outcomes[0].bins_opened(),
        outcomes[0].total_usage()
    );

    server.stop();
}
