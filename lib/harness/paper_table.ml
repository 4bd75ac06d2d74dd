module S = Runtime.Scheme_spec

type workload =
  | Batch of Workload.Spec.batch
  | Server of Workload.Spec.server

type value =
  | Cycles of S.t
  | Ratio of S.t * S.t
  | Paper of (Workload.Spec.paper_numbers -> float option)

type column = {
  header : string;
  key : string;
  value : value;
}

type t = {
  number : int;
  title : string;
  note : string option;
  workloads : workload list;
  loc : bool;
  columns : column list;
}

let cycles header key s = { header; key; value = Cycles s }
let ratio header key num den = { header; key; value = Ratio (num, den) }
let paper header key f = { header; key; value = Paper f }
let batches = List.map (fun b -> Batch b)

let table1 =
  {
    number = 1;
    title = "Table 1: run-time overhead on Unix utilities and servers";
    note =
      Some
        "(cycles in millions; utilities = whole run, servers = mean response\n\
         per forked connection; Ratio1 = ours/LLVM-base, Ratio2 = ours/native)";
    workloads =
      batches Workload.Catalog.utilities
      @ List.map (fun s -> Server s) Workload.Catalog.servers;
    loc = true;
    columns =
      [
        cycles "native" "native" S.native;
        cycles "LLVM" "llvm_base" S.llvm_base;
        cycles "PA" "pa" S.pa;
        cycles "PA+dummy" "pa_dummy" S.pa_dummy;
        cycles "ours" "ours" S.ours;
        ratio "Ratio1" "ratio1" S.ours S.llvm_base;
        ratio "Ratio2" "ratio2" S.ours S.native;
        paper "paper R1" "paper_ratio1" (fun p -> p.Workload.Spec.ratio1);
      ];
  }

(* Shows ours/valgrind cycles but not the LLVM-base cycles its ratios
   divide by. *)
let table2 =
  {
    number = 2;
    title = "Table 2: comparison with the Valgrind-class checker";
    note =
      Some
        "(the model charges a uniform DBT factor, so the per-program spread of\n\
         real memcheck [2.5x-25x] collapses to ~12x; the orders-of-magnitude\n\
         gap vs. our approach is the property under test)";
    workloads = batches Workload.Catalog.utilities;
    loc = false;
    columns =
      [
        cycles "ours (Mcy)" "ours_cycles" S.ours;
        cycles "valgrind (Mcy)" "valgrind_cycles" S.valgrind;
        ratio "our slowdown" "ours_slowdown" S.ours S.llvm_base;
        ratio "valgrind slowdown" "valgrind_slowdown" S.valgrind S.llvm_base;
        paper "paper valgrind" "paper_valgrind_slowdown" (fun p ->
            p.Workload.Spec.valgrind_ratio);
      ];
  }

let table3 =
  {
    number = 3;
    title = "Table 3: allocation-intensive Olden benchmarks";
    note = None;
    workloads = batches Workload.Catalog.olden;
    loc = false;
    columns =
      [
        cycles "native" "native" S.native;
        cycles "LLVM" "llvm_base" S.llvm_base;
        cycles "PA+dummy" "pa_dummy" S.pa_dummy;
        cycles "ours" "ours" S.ours;
        ratio "Ratio3" "ratio3" S.ours S.llvm_base;
        paper "paper R3" "paper_ratio3" (fun p -> p.Workload.Spec.ratio1);
      ];
  }

let all = [ table1; table2; table3 ]
let find n = List.find_opt (fun t -> t.number = n) all

let workload_name = function
  | Batch b -> b.Workload.Spec.name
  | Server s -> s.Workload.Spec.s_name

let same_scheme a b = String.equal (S.label a) (S.label b)

(* The measured schemes: every scheme the columns name, once each. *)
let schemes t =
  List.concat_map
    (fun c ->
      match c.value with
      | Cycles s -> [ s ]
      | Ratio (num, den) -> [ num; den ]
      | Paper _ -> [])
    t.columns
  |> List.fold_left
       (fun acc s ->
         if List.exists (same_scheme s) acc then acc else acc @ [ s ])
       []

type cell = {
  workload : workload;
  scheme : S.t;
  scale : int;
  figure : float;
  run_cycles : float;
  stats : Vmm.Stats.snapshot;
}

let simulate ~scale workload scheme =
  let figure, run_cycles, stats =
    match workload with
    | Batch b ->
      let r = Experiment.run_batch ~scale b scheme in
      Experiment.(r.cycles, r.cycles, r.stats)
    | Server s ->
      let r = Experiment.run_server ~connections:scale s scheme in
      Runtime.Process.
        (r.mean_cycles_per_connection, r.total_cycles, r.total_stats)
  in
  { workload; scheme; scale; figure; run_cycles; stats }

let is_cell workload scheme c =
  String.equal (workload_name c.workload) (workload_name workload)
  && same_scheme c.scheme scheme

let cell cells workload scheme = List.find (is_cell workload scheme) cells

let default_scale ~scale_divisor = function
  | Batch b -> max 1 (b.Workload.Spec.default_scale / scale_divisor)
  | Server s -> max 2 (s.Workload.Spec.s_default_connections / scale_divisor)

let measure ?(scale_divisor = 1) tables =
  List.concat_map
    (fun t ->
      List.concat_map
        (fun w -> List.map (fun s -> (w, s)) (schemes t))
        t.workloads)
    tables
  |> List.fold_left
       (fun cells (w, s) ->
         if List.exists (is_cell w s) cells then cells
         else simulate ~scale:(default_scale ~scale_divisor w) w s :: cells)
       []
  |> List.rev

type row = {
  name : string;
  loc : int option;
  values : (string * float option) list;
}

let make_row (t : t) cells workload =
  let figure s = (cell cells workload s).figure in
  let paper_numbers =
    match workload with
    | Batch b -> b.Workload.Spec.paper
    | Server s -> s.Workload.Spec.s_paper
  in
  {
    name = workload_name workload;
    loc = paper_numbers.Workload.Spec.loc;
    values =
      List.map
        (fun c ->
          ( c.key,
            match c.value with
            | Cycles s -> Some (figure s)
            | Ratio (num, den) -> Some (figure num /. figure den)
            | Paper f -> f paper_numbers ))
        t.columns;
  }

let rows cells t = List.map (make_row t cells) t.workloads
let run ?scale_divisor t = rows (measure ?scale_divisor [ t ]) t

let row ?scale t workload =
  let scale =
    Option.value scale ~default:(default_scale ~scale_divisor:1 workload)
  in
  make_row t (List.map (simulate ~scale workload) (schemes t)) workload

let value r key =
  match List.assoc key r.values with Some v -> v | None -> raise Not_found

let render (t : t) rows =
  let opt f = function Some x -> f x | None -> "-" in
  let cells r =
    (r.name :: (if t.loc then [ opt string_of_int r.loc ] else []))
    @ List.map2
        (fun c (_, v) ->
          match c.value with
          | Cycles _ -> opt Table.fmt_cycles v
          | Ratio _ | Paper _ -> opt Table.fmt_ratio v)
        t.columns r.values
  in
  Table.render
    ~headers:
      (("Benchmark" :: (if t.loc then [ "LOC" ] else []))
      @ List.map (fun c -> c.header) t.columns)
    (List.map cells rows)

let to_json (t : t) rows =
  let open Telemetry.Json in
  let opt f = function Some x -> f x | None -> Null in
  List
    (List.map
       (fun r ->
         Obj
           ((("name", String r.name)
            :: (if t.loc then [ ("loc", opt (fun l -> Int l) r.loc) ] else []))
           @ List.map (fun (key, v) -> (key, opt (fun x -> Float x) v)) r.values
           ))
       rows)
