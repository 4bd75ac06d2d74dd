(** A metrics registry: named counters, gauges, and histograms.

    Handles are get-or-create — [counter t "vmm.faults"] returns the
    same counter every time — so instrumentation sites need no setup
    order.  Registration order is preserved for stable export. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Raises [Invalid_argument] if the name is registered as another
    metric kind. *)

val add : counter -> int -> unit
(** [add c n] adds [n] to [c]. *)

val incr : counter -> unit
val set_counter : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?buckets_per_octave:int -> t -> string -> Histogram.t
(** [buckets_per_octave] only applies on first creation. *)

val names : t -> string list
(** Registered metric names, in registration order. *)

(** A metric's current value, for exporters that walk a registry
    generically ({!Export.to_prometheus}). *)
type value = Counter_v of int | Gauge_v of float | Hist_v of Histogram.t

val value : t -> string -> value option
(** The value registered under [name], if any.  The histogram is the
    live handle, not a copy. *)

val merge : into:t -> t -> unit
(** Fold every metric of the source registry into [into], get-or-create
    by name: counters add, gauges take the max, histograms merge sample
    multisets ({!Histogram.merge_into}).  All three operations are
    commutative and associative, so merging shard registries is
    order-independent and equal to one registry fed all the samples —
    the farm's join-time contract.  Raises [Invalid_argument] if a name
    is registered with different metric kinds in the two registries, or
    if two histograms disagree on [buckets_per_octave]. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {count, mean, p50, p90, p99, max}}}]. *)

val pp : Format.formatter -> t -> unit
(** One metric per line, for humans. *)
