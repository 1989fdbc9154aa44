//! A join query on XMark-style auction data: pair each closed auction with
//! the buyer's name. Shows FluXQuery executing a join by buffering only the
//! projected person data (names + ids), never the bulky item descriptions,
//! and probing it as a keyed loop: the second auction indexes the buffered
//! people by `@id`, and every auction after it looks its buyer up in that
//! index (the explain report's last section says so).
//!
//! Run with: `cargo run --release --example auction_join`

use fluxquery::xmlgen::{auction_string, AuctionConfig, AUCTION_DTD};
use fluxquery::{FluxEngine, Options};

// Rooting both sides in one $s variable lets the scheduler see that
// `people` precedes `closed_auctions` in the site's content model: the
// auction loop streams, probing the (projected, indexed) people buffer.
const JOIN_QUERY: &str = r#"<sales>{
    for $s in $ROOT/site return
    for $a in $s/closed_auctions/closed_auction,
        $p in $s/people/person
    where $a/buyer = $p/@id
    return <sale>{$p/name}{$a/price}</sale>
}</sales>"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = FluxEngine::compile(JOIN_QUERY, AUCTION_DTD, &Options::default())?;
    println!("{}", engine.explain());

    let doc = auction_string(&AuctionConfig::scale(1.0, 7));
    let (out, stats) = engine.run_to_string(&doc)?;
    let sales = out.matches("<sale>").count();
    println!("input:  {} bytes of auction data", doc.len());
    println!("output: {sales} sales, {} bytes", stats.output_bytes);
    println!(
        "peak buffered: {} bytes ({} nodes) — item descriptions never buffered",
        stats.peak_buffer_bytes, stats.peak_buffer_nodes
    );
    println!("runtime: {:?}", stats.duration);
    Ok(())
}
