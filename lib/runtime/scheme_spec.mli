(** The typed scheme catalogue: one value per runnable configuration.

    Every consumer that used to re-parse scheme names by string matching
    — the CLI, the farm, the harness tables, the bench sections — now
    carries a [Scheme_spec.t] and lets {!of_string}/{!to_string} be the
    {e only} place the spelling of a scheme name lives.  A spec bundles
    the constructor variant with its per-backend config record
    ({!Schemes.pool_config} and friends), so the catalogue, the CLI
    listing ([danguard help]), the README table and the round-trip tests
    all enumerate the same {!all}. *)

type t =
  | Native  (** unmodified program, native code quality *)
  | Llvm_base  (** unmodified program, LLVM C back-end code quality *)
  | Pa of Schemes.pa_config  (** pool allocation alone (no detection) *)
  | Shadow_basic  (** shadow pages, no pools (binary-only mode, §3.2) *)
  | Shadow_pool of Schemes.pool_config
      (** the paper's full scheme (§3.3) in one of its modes: eager
          protection, static elision, inferred pool scopes or
          epoch-batched protection *)
  | Shadow_pool_spatial of Schemes.spatial_config
      (** shadow pages + software bounds checks *)
  | Tagged of Schemes.tagged_config
      (** pointer-tagging backend: per-access software tag check,
          instant VA reuse *)
  | Backend_ladder
      (** {!Governed.backend_ladder}: shadow → tagged → raw under the
          governor *)
  | Efence  (** Electric Fence baseline *)
  | Valgrind  (** Valgrind-style interpretation baseline *)
  | Capability  (** capability/fat-pointer checking baseline *)
  | Recover of t
      (** [Schemes.recoverable] over the base spec: violations are
          logged and the workload continues *)

(** {1 Default-config shortcuts}

    One value per family with its default config — the spelling
    consumers use ([Scheme_spec.ours], [Scheme_spec.tagged], ...). *)

val native : t
val llvm_base : t
val pa : t
val pa_dummy : t
val ours_basic : t
val ours : t
val ours_bounds : t
val ours_inferred : t
val ours_epoch : t
val tagged : t
val ladder : t
val efence : t
val valgrind : t
val capability : t

val all : t list
(** One entry per family, each with its default config (plus
    ["ours+recover"] as the wrapper's representative).  The [Scoped]
    and [Epoch] shadow-pool modes are entries of their own
    (["ours-inferred"], ["ours-epoch"]); [Elided] is not, since its
    policy comes from an analysis run, not a name.  This is the list
    [danguard help] prints, the README scheme table must match (a test
    checks it) and the round-trip test walks. *)

val to_string : t -> string
(** Canonical CLI name (["native"], ["ours"], ["tagged"],
    ["ours+recover"], ...).  Configs do not print: a non-default config
    renders as its family name (the [Elided] shadow-pool mode as
    ["ours-static"], which {!of_string} reads back as ["ours"]), so
    [to_string] round-trips through {!of_string} exactly for {!all}'s
    (default-config) entries. *)

val of_string : string -> t option
(** Inverse of {!to_string} over default configs; [None] for an unknown
    name.  ["ours-static"] is accepted as an alias of ["ours"]: an
    elision policy cannot be spelled on a command line, and the empty
    one elides nothing.  The {e only} scheme-name string matching in
    the tree (grep-gated by [scripts/lint_src.sh]). *)

val names : unit -> string list
(** [List.map to_string all]. *)

val label : t -> string
(** Human table label, preserved from the paper harness:
    ["our-approach"], ["pa+dummy-syscalls"], ["ours+bounds"], ... *)

val description : t -> string
(** One-line description for [danguard help] and the README table. *)

val detects : t -> bool
(** Whether the scheme guarantees detection of dangling uses (modulo
    documented bounds: tag-width wraparound for [Tagged], ladder state
    for [Backend_ladder] — which reports [false]). *)

val cost_profile : t -> pa_quality_gain:float -> Vmm.Cost_model.t
(** The cost-model profile this configuration compiles under: native
    for [Native], LLVM-base otherwise, with [pa_quality_gain] scaling
    code quality for the pool-based configs (APA's locality effect). *)

val build : t -> Vmm.Machine.t -> Scheme.t
(** Construct the scheme on the given machine. *)
