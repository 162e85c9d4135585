//! Table III: the six evaluation predicates — parse, resolve at the
//! sender (n1) of the Fig. 2 topology, and show their compiled form.

use stabilizer_analyze::paper::{fig2_topology, TABLE3};
use stabilizer_bench::print_table;
use stabilizer_dsl::{AckTypeRegistry, NodeId, Predicate};

fn main() {
    let topo = fig2_topology();
    let acks = AckTypeRegistry::new();
    let mut rows = Vec::new();
    for (name, src) in TABLE3 {
        let pred = Predicate::compile(src, &topo, &acks, NodeId(0)).expect("Table III compiles");
        rows.push(vec![
            name.to_owned(),
            src.to_owned(),
            format!("{}", pred.resolved().expr),
            pred.program().instrs().len().to_string(),
        ]);
    }
    print_table(
        "Table III: predicates used in the experiments (resolved at n1)",
        &["Name", "Predicate", "Resolved form", "Instrs"],
        &rows,
    );
}
