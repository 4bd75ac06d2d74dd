(* What every workload hands back per round, and the helpers they share:
   the scheme under test, the cycle ledger and the order statistics. *)

let ours = Runtime.Scheme_spec.ours
let native = Runtime.Scheme_spec.native

let cost_of spec = Runtime.Scheme_spec.cost_profile spec ~pa_quality_gain:1.0

(* The simulated outcome of one round.  Every field is a pure function
   of the workload's inputs, so rounds of one run, runs of one seed and
   the traced and untraced passes must all agree on it exactly. *)
type sim = {
  cycles : float;  (* simulated cycles summed over the round's machines *)
  stats : Vmm.Stats.snapshot;  (* summed over the round's machines *)
  ledger : Ledger.t;  (* [cycles] split by cause *)
  conn_kcycles_p50 : float;  (* per connection; 0 on the Olden kernels *)
  conn_kcycles_p99 : float;
  connections : int;
  va_pages_peak : int;
  phys_pages_peak : int;
  walks : int;  (* Page_table walks *)
  frame_lookups : int;  (* Frame_table lookups *)
  gc_runs : int;
  gc_scanned_words : int;
  gc_reclaimed_pages : int;
  gc_offered_pages : int;  (* freed pages the GC runs examined *)
  gc_pinned_max : int;  (* most ranges one GC run kept pinned *)
  fleet_reports : int;
  probes : int;  (* dangling probes made, each of which trapped *)
}

type round = {
  wall_ns : int;
  ops : int;  (* throughput numerator: connections, or simulated ops *)
  host_lat_ns : int array;  (* host latency samples: per connection, or per kernel run *)
  sim : sim;
  failures : string list;  (* failed output checks, empty when correct *)
  farm_overhead_ns : int;  (* farm only: wall minus busiest shard *)
  shard_busy_ns : int array;  (* farm only *)
}

let sim_zero =
  {
    cycles = 0.;
    stats = Vmm.Stats.zero;
    ledger = Ledger.zero;
    conn_kcycles_p50 = 0.;
    conn_kcycles_p99 = 0.;
    connections = 0;
    va_pages_peak = 0;
    phys_pages_peak = 0;
    walks = 0;
    frame_lookups = 0;
    gc_runs = 0;
    gc_scanned_words = 0;
    gc_reclaimed_pages = 0;
    gc_offered_pages = 0;
    gc_pinned_max = 0;
    fleet_reports = 0;
    probes = 0;
  }

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: no samples";
  sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted_floats a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median_float a = percentile (sorted_floats a) 0.5

let va_pages (m : Vmm.Machine.t) = Vmm.Machine.va_bytes_used m / Vmm.Addr.page_size
let phys_pages (m : Vmm.Machine.t) = Vmm.Frame_table.peak_frames m.Vmm.Machine.frames
let walks (m : Vmm.Machine.t) = Vmm.Page_table.walk_count m.Vmm.Machine.page_table
let lookups (m : Vmm.Machine.t) = Vmm.Frame_table.lookup_count m.Vmm.Machine.frames

