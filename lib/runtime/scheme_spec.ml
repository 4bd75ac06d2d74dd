type t =
  | Native
  | Llvm_base
  | Pa of Schemes.pa_config
  | Shadow_basic
  | Shadow_pool of Schemes.pool_config
  | Shadow_pool_spatial of Schemes.spatial_config
  | Tagged of Schemes.tagged_config
  | Backend_ladder
  | Efence
  | Valgrind
  | Capability
  | Recover of t

(* Default-config shortcuts: the spelling consumers use. *)
let native = Native
let llvm_base = Llvm_base
let pa = Pa Schemes.default_pa_config
let pa_dummy = Pa { Schemes.dummy_syscalls = true }
let ours_basic = Shadow_basic
let ours = Shadow_pool Schemes.default_pool_config
let ours_bounds = Shadow_pool_spatial Schemes.default_spatial_config
let ours_inferred = Shadow_pool Schemes.Scoped
let ours_epoch = Shadow_pool (Schemes.Epoch Schemes.default_epoch_config)
let tagged = Tagged Schemes.default_tagged_config
let ladder = Backend_ladder
let efence = Efence
let valgrind = Valgrind
let capability = Capability

let all =
  [
    Native;
    Llvm_base;
    Pa Schemes.default_pa_config;
    Pa { dummy_syscalls = true };
    Shadow_basic;
    Shadow_pool Schemes.default_pool_config;
    Shadow_pool_spatial Schemes.default_spatial_config;
    Shadow_pool Schemes.Scoped;
    Shadow_pool (Schemes.Epoch Schemes.default_epoch_config);
    Tagged Schemes.default_tagged_config;
    Backend_ladder;
    Efence;
    Valgrind;
    Capability;
    Recover (Shadow_pool Schemes.default_pool_config);
  ]

let recover_suffix = "+recover"

(* Each spec's CLI name, paper-table label and one-line description. *)
let rec describe = function
  | Native ->
    ( "native",
      "native",
      "unmodified program, native code quality, no detection" )
  | Llvm_base ->
    ("llvm", "llvm-base", "unmodified program, LLVM C back-end code quality")
  | Pa { Schemes.dummy_syscalls = false } ->
    ("pa", "pa", "automatic pool allocation alone: VA recycling, no detection")
  | Pa { Schemes.dummy_syscalls = true } ->
    ( "pa-dummy",
      "pa+dummy-syscalls",
      "pools plus one no-op syscall per alloc/free (syscall-cost control)" )
  | Shadow_basic ->
    ( "ours-basic",
      "our-approach (no pools)",
      "shadow pages over the plain allocator (binary-only mode)" )
  | Shadow_pool (Schemes.Eager _) ->
    ( "ours",
      "our-approach",
      "the paper's full scheme: shadow pages + pool allocation" )
  | Shadow_pool (Schemes.Elided _) ->
    ( "ours-static",
      "our-approach+static",
      "shadow pool with static protection elision" )
  | Shadow_pool Schemes.Scoped ->
    ( "ours-inferred",
      "our-approach+inferred",
      "one shadow pool per statically inferred pool scope; destroy unmaps" )
  | Shadow_pool (Schemes.Epoch _) ->
    ( "ours-epoch",
      "our-approach+epoch",
      "epoch-batched deferred protection with slab pre-aliasing" )
  | Shadow_pool_spatial _ ->
    ( "ours-bounds",
      "ours+bounds",
      "shadow pages plus per-access software bounds checks" )
  | Tagged _ ->
    ( "tagged",
      "tagged",
      "pointer tagging: per-access generation-tag check, instant VA reuse" )
  | Backend_ladder ->
    ( "ladder",
      "backend-ladder",
      "governor steps backends: shadow -> tagged -> raw, probe-recovered" )
  | Efence ->
    ("efence", "electric-fence", "Electric Fence baseline: one object per page")
  | Valgrind ->
    ("valgrind", "valgrind-sim", "Valgrind-style interpretation baseline")
  | Capability ->
    ("capability", "capability", "capability/fat-pointer checking baseline")
  | Recover base ->
    let name, label, description = describe base in
    ( name ^ recover_suffix,
      label ^ recover_suffix,
      description ^ "; violations logged, not fatal" )

let to_string spec =
  let name, _, _ = describe spec in
  name

let label spec =
  let _, label, _ = describe spec in
  label

let description spec =
  let _, _, description = describe spec in
  description

let rec of_string name =
  if String.ends_with ~suffix:recover_suffix name then
    let base =
      String.sub name 0 (String.length name - String.length recover_suffix)
    in
    Option.map (fun b -> Recover b) (of_string base)
  (* An alias: with no analysis behind it the elision policy is empty,
     which is exactly "ours". *)
  else if String.equal name "ours-static" then Some ours
  else List.find_opt (fun spec -> String.equal (to_string spec) name) all

let names () = List.map to_string all

let rec detects = function
  | Native | Llvm_base | Pa _ -> false
  | Shadow_basic | Shadow_pool _ | Shadow_pool_spatial _ | Tagged _ -> true
  | Backend_ladder -> false (* conditional on the ladder staying in Full *)
  | Efence | Valgrind | Capability -> true
  | Recover base -> detects base

let rec uses_pa_profile = function
  | Pa _ | Shadow_pool _ | Tagged _ | Backend_ladder -> true
  | Native | Llvm_base | Shadow_basic | Shadow_pool_spatial _ | Efence
  | Valgrind | Capability ->
    false
  | Recover base -> uses_pa_profile base

let cost_profile spec ~pa_quality_gain =
  match spec with
  | Native -> Vmm.Cost_model.native
  | _ when uses_pa_profile spec ->
    (* Pool allocation changes data layout; the per-workload gain factor
       scales the compiled work (paper: gzip speeds up under PA).  The
       tagged and ladder backends allocate through the same pools. *)
    let base = Vmm.Cost_model.llvm_base in
    Vmm.Cost_model.with_code_quality base
      (base.Vmm.Cost_model.code_quality *. pa_quality_gain)
  | _ -> Vmm.Cost_model.llvm_base

let rec build spec machine =
  match spec with
  | Native | Llvm_base -> Schemes.native machine
  | Pa config -> Schemes.pa ~config machine
  | Shadow_basic -> Schemes.shadow_basic machine
  | Shadow_pool config -> Schemes.shadow_pool ~config machine
  | Shadow_pool_spatial config -> Schemes.shadow_pool_spatial ~config machine
  | Tagged config -> Schemes.tagged ~config machine
  | Backend_ladder -> Governed.scheme (Governed.backend_ladder machine)
  | Efence -> Efence.scheme machine
  | Valgrind -> Valgrind_sim.scheme machine
  | Capability -> Capability_check.scheme machine
  | Recover base -> Schemes.recoverable (build base machine)
