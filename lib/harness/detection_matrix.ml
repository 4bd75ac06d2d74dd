type cell = {
  config : Experiment.config;
  scenario : string;
  outcome : Workload.Fault_injection.outcome;
}

let configs =
  Runtime.Scheme_spec.
    [ native; ours; ours_basic; efence; valgrind; capability ]

let run () =
  List.concat_map
    (fun config ->
      List.map
        (fun (scenario : Workload.Fault_injection.scenario) ->
          let scheme = Experiment.make_scheme config () in
          {
            config;
            scenario = scenario.Workload.Fault_injection.sc_name;
            outcome = scenario.Workload.Fault_injection.inject scheme;
          })
        Workload.Fault_injection.all)
    configs

let spatial_configs =
  Runtime.Scheme_spec.[ native; ours; ours_bounds; efence; valgrind ]

let run_spatial () =
  List.concat_map
    (fun config ->
      List.map
        (fun (scenario : Workload.Fault_injection.scenario) ->
          let scheme = Experiment.make_scheme config () in
          {
            config;
            scenario = scenario.Workload.Fault_injection.sc_name;
            outcome = scenario.Workload.Fault_injection.inject scheme;
          })
        Workload.Fault_injection.spatial)
    spatial_configs

let short_outcome = function
  | Workload.Fault_injection.Detected _ -> "detected"
  | Workload.Fault_injection.Silent _ -> "MISSED"
  | Workload.Fault_injection.Crashed _ -> "crash"
  | Workload.Fault_injection.Crashed_degraded _ -> "crash*"

let render cells =
  let scenarios =
    List.sort_uniq compare (List.map (fun c -> c.scenario) cells)
  in
  (* Row set and order come from the cells (first appearance), so the
     same renderer serves the temporal and the spatial matrices. *)
  let row_configs =
    List.fold_left
      (fun acc c -> if List.mem c.config acc then acc else acc @ [ c.config ])
      [] cells
  in
  let headers = "Scheme" :: scenarios in
  let rows =
    List.map
      (fun config ->
        Experiment.config_label config
        :: List.map
             (fun s ->
               match
                 List.find_opt
                   (fun c -> c.config = config && c.scenario = s)
                   cells
               with
               | Some c -> short_outcome c.outcome
               | None -> "?")
             scenarios)
      row_configs
  in
  Table.render ~headers
    ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) scenarios)
    rows

let guaranteed_configs cells =
  List.filter
    (fun config ->
      List.for_all
        (fun c ->
          c.config <> config
          ||
          match c.outcome with
          | Workload.Fault_injection.Detected _ -> true
          | Workload.Fault_injection.Silent _
          | Workload.Fault_injection.Crashed _
          | Workload.Fault_injection.Crashed_degraded _ ->
            false)
        cells)
    configs
