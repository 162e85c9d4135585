//! §VI-A DSL-cost microbenchmark under Criterion: predicate compilation
//! (one-time) and evaluation (critical-path) cost across operator and
//! operand counts, plus the compiled-vs-interpreted ablation that
//! motivates the paper's JIT.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stabilizer_dsl::{
    compile, eval_resolved, parse, resolve, AckTypeId, AckTypeRegistry, AckView, EvalScratch,
    NodeId, Predicate, Topology,
};

struct Zero;
impl AckView for Zero {
    fn ack(&self, _n: NodeId, _t: AckTypeId) -> u64 {
        7
    }
}

fn topo(n: usize) -> Topology {
    let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Topology::builder().az("A", &refs).build().unwrap()
}

fn pred_src(ops: usize, operands: usize) -> String {
    let list: Vec<String> = (1..=operands).map(|i| format!("${i}")).collect();
    let mut src = format!("KTH_MIN(2, {})", list.join(", "));
    for _ in 1..ops {
        src = format!("KTH_MIN(2, {}, {src})", list.join(", "));
    }
    src
}

fn bench_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile");
    for ops in [1usize, 3, 5] {
        for operands in [5usize, 20] {
            let topo = topo(operands);
            let acks = AckTypeRegistry::new();
            let src = pred_src(ops, operands);
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{ops}ops_{operands}operands")),
                &src,
                |b, src| b.iter(|| Predicate::compile(src, &topo, &acks, NodeId(0)).unwrap()),
            );
        }
    }
    g.finish();
}

fn bench_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval_compiled");
    for ops in [1usize, 3, 5] {
        for operands in [5usize, 20] {
            let topo = topo(operands);
            let acks = AckTypeRegistry::new();
            let pred =
                Predicate::compile(&pred_src(ops, operands), &topo, &acks, NodeId(0)).unwrap();
            let mut scratch = EvalScratch::with_capacity(pred.program().max_stack());
            g.bench_function(
                BenchmarkId::from_parameter(format!("{ops}ops_{operands}operands")),
                |b| b.iter(|| pred.eval_with(&Zero, &mut scratch)),
            );
        }
    }
    g.finish();
}

fn bench_interpreted(c: &mut Criterion) {
    // The no-JIT baseline: resolve + evaluate from the AST every time.
    let mut g = c.benchmark_group("eval_interpreted");
    for ops in [1usize, 5] {
        let operands = 20;
        let topo = topo(operands);
        let acks = AckTypeRegistry::new();
        let ast = parse(&pred_src(ops, operands)).unwrap();
        g.bench_function(
            BenchmarkId::from_parameter(format!("{ops}ops_{operands}operands")),
            |b| {
                b.iter(|| {
                    let resolved = resolve(&ast, &topo, &acks, NodeId(0)).unwrap();
                    eval_resolved(&resolved.expr, &Zero)
                })
            },
        );
    }
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    // The optimizer ablation: evaluation cost of Table III's OneRegion
    // (nested MAXes that flatten fully) with and without the optimizer.
    let topo = Topology::builder()
        .az("North_California", &["n1", "n2"])
        .az("North_Virginia", &["n3", "n4", "n5", "n6"])
        .az("Oregon", &["n7"])
        .az("Ohio", &["n8"])
        .build()
        .unwrap();
    let acks = AckTypeRegistry::new();
    let src = "MAX(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))";
    let opt = Predicate::compile(src, &topo, &acks, NodeId(0)).unwrap();
    let unopt = compile(&resolve(&parse(src).unwrap(), &topo, &acks, NodeId(0)).unwrap());
    let mut g = c.benchmark_group("optimizer_eval");
    let mut s1 = stabilizer_dsl::EvalScratch::with_capacity(opt.program().max_stack());
    let mut s2 = stabilizer_dsl::EvalScratch::with_capacity(unopt.max_stack());
    g.bench_function("optimized", |b| b.iter(|| opt.eval_with(&Zero, &mut s1)));
    g.bench_function("unoptimized", |b| {
        b.iter(|| unopt.eval_with(&Zero, &mut s2))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_eval,
    bench_interpreted,
    bench_optimizer
);
criterion_main!(benches);
