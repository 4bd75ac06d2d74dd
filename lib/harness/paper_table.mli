(** The paper's Tables 1–3 as three values of one type, with one
    measurement loop, renderer and JSON exporter for all of them.

    - Table 1: overheads on Unix utilities and servers — native, LLVM
      (base), PA, PA + dummy syscalls, our approach, Ratio 1 (ours /
      LLVM base) and Ratio 2 (ours / native).
    - Table 2: our approach vs. a Valgrind-style checker on the four
      utilities (servers cannot run under Valgrind, as the paper notes).
    - Table 3: the allocation-intensive Olden kernels, the worst case for
      a per-allocation-syscall scheme; Ratio 3 is ours / LLVM base.

    A batch workload's figure is its whole-run cycles; a server's is its
    mean response cycles per forked connection. *)

type workload =
  | Batch of Workload.Spec.batch
  | Server of Workload.Spec.server

type value =
  | Cycles of Runtime.Scheme_spec.t  (** the scheme's figure, in Mcycles *)
  | Ratio of Runtime.Scheme_spec.t * Runtime.Scheme_spec.t
      (** [Ratio (num, den)]: num's figure over den's *)
  | Paper of (Workload.Spec.paper_numbers -> float option)
      (** the paper's own ratio, where it gives one *)

type column = {
  header : string;  (** text header *)
  key : string;  (** JSON key *)
  value : value;
}

type t = {
  number : int;
  title : string;  (** the bench report's section heading *)
  note : string option;  (** printed under the heading in the bench report *)
  workloads : workload list;
  loc : bool;  (** show the paper's LOC after the name (header LOC, key loc) *)
  columns : column list;  (** in text and JSON order *)
}

val table1 : t
val table2 : t
val table3 : t
val all : t list
val find : int -> t option
val workload_name : workload -> string

type cell = {
  workload : workload;
  scheme : Runtime.Scheme_spec.t;
  scale : int;  (** batch scale, or server connections *)
  figure : float;
  run_cycles : float;  (** whole-run cycles (a server's: all connections) *)
  stats : Vmm.Stats.snapshot;  (** whole-run counters *)
}

val measure : ?scale_divisor:int -> t list -> cell list
(** Simulate every distinct (workload, scheme) cell of the tables once.
    [scale_divisor] divides batch scales (floor 1) and server connection
    counts (floor 2). *)

val cell : cell list -> workload -> Runtime.Scheme_spec.t -> cell
(** Raises [Not_found] if that cell was not measured. *)

type row = {
  name : string;
  loc : int option;
  values : (string * float option) list;  (** column key → value *)
}

val rows : cell list -> t -> row list

val run : ?scale_divisor:int -> t -> row list
(** [rows (measure ?scale_divisor [ t ]) t]. *)

val row : ?scale:int -> t -> workload -> row
(** One row measured alone; [scale] overrides the workload's default
    (a server's connection count). *)

val value : row -> string -> float
(** The value under a column key; raises [Not_found] if there is none. *)

val render : t -> row list -> string
val to_json : t -> row list -> Telemetry.Json.t
