(** Server response-time distributions.

    Table 1 reports mean response time; for a production-server argument
    the tail matters too.  This study serves a synthetic web workload
    with heavy-tailed response sizes (file sizes spanning two orders of
    magnitude) and reports percentiles per configuration.  The scheme's
    cost is a near-constant few syscalls per connection, so its relative
    overhead {e shrinks} toward the tail — large requests amortize it —
    which is exactly why the paper targets servers. *)

type distribution = {
  config : Runtime.Scheme_spec.t;
  p50 : float;   (** median cycles per connection *)
  p95 : float;
  p99 : float;
  mean : float;
}

val buckets_per_octave : int
(** Bucket resolution this study uses (256/octave, 0.27% per bucket):
    fine enough that percentile {e ratios} between configs carry the
    few-percent effects being measured.  Shared with the farm's
    per-shard latency histograms so they merge against each other. *)

type quantiles = { q50 : float; q95 : float; q99 : float; q_mean : float }

val quantiles_of_histogram : Telemetry.Histogram.t -> quantiles
(** Percentile summary of any cycles histogram (e.g. a farm's merged
    per-shard latency histogram). *)

val measure :
  ?connections:int -> Runtime.Scheme_spec.t -> distribution
(** Serve [connections] (default 120) heavy-tailed requests. *)

val study : ?connections:int -> unit -> distribution list
(** Native, LLVM-base and Ours, same request sequence. *)

val render : distribution list -> string
