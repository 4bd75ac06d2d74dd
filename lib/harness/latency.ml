type distribution = {
  config : Runtime.Scheme_spec.t;
  p50 : float;
  p95 : float;
  p99 : float;
  mean : float;
}

(* Heavy-tailed request sizes: mostly small pages, occasional large
   downloads (the classic web-server distribution). *)
let request_blocks rng =
  match Workload.Prng.below rng 100 with
  | n when n < 70 -> 1 + Workload.Prng.below rng 4 (* small page *)
  | n when n < 95 -> 8 + Workload.Prng.below rng 24 (* asset *)
  | _ -> 64 + Workload.Prng.below rng 192 (* large download *)

let handler blocks _conn (scheme : Runtime.Scheme.t) =
  let req = scheme.Runtime.Scheme.malloc ~site:"latency:request" 512 in
  Runtime.Workload_api.fill_words scheme req ~words:16 ~value:blocks;
  let buf = scheme.Runtime.Scheme.malloc ~site:"latency:sendbuf" 4096 in
  for block = 1 to blocks do
    Runtime.Workload_api.fill_words scheme buf ~words:64 ~value:block;
    scheme.Runtime.Scheme.compute 40_000
  done;
  scheme.Runtime.Scheme.free buf;
  scheme.Runtime.Scheme.free req

(* Fine buckets (256/octave = 0.27% ratio per bucket): the study compares
   percentile *ratios* across configs, so quantization error must stay
   well under the few-percent effects being measured. *)
let latency_buckets_per_octave = 256
let buckets_per_octave = latency_buckets_per_octave

type quantiles = { q50 : float; q95 : float; q99 : float; q_mean : float }

let quantiles_of_histogram hist =
  {
    q50 = Telemetry.Histogram.percentile hist 0.50;
    q95 = Telemetry.Histogram.percentile hist 0.95;
    q99 = Telemetry.Histogram.percentile hist 0.99;
    q_mean = Telemetry.Histogram.mean hist;
  }

let measure ?(connections = 120) config =
  let rng = Workload.Prng.create ~seed:271828 in
  let hist =
    Telemetry.Histogram.create ~buckets_per_octave:latency_buckets_per_octave ()
  in
  for conn = 0 to connections - 1 do
    let blocks = request_blocks rng in
    let result =
      Runtime.Process.run_connection
        ~make_scheme:(fun () -> Experiment.make_scheme config ())
        ~handler:(handler blocks conn)
    in
    Telemetry.Histogram.observe hist result.Runtime.Process.cycles
  done;
  let q = quantiles_of_histogram hist in
  { config; p50 = q.q50; p95 = q.q95; p99 = q.q99; mean = q.q_mean }

let study ?connections () =
  List.map
    (fun config -> measure ?connections config)
    Runtime.Scheme_spec.[ native; llvm_base; ours ]

let render dists =
  let base =
    match
      List.find_opt (fun d -> d.config = Runtime.Scheme_spec.llvm_base) dists
    with
    | Some d -> d
    | None -> List.hd dists
  in
  let cells d =
    [
      Runtime.Scheme_spec.label d.config;
      Table.fmt_cycles d.p50;
      Table.fmt_cycles d.p95;
      Table.fmt_cycles d.p99;
      Table.fmt_cycles d.mean;
      Table.fmt_ratio (d.p50 /. base.p50);
      Table.fmt_ratio (d.p99 /. base.p99);
    ]
  in
  Table.render
    ~headers:[ "Scheme"; "p50"; "p95"; "p99"; "mean"; "p50 ratio"; "p99 ratio" ]
    (List.map cells dists)
