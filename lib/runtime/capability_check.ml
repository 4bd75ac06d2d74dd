open Vmm

type config = { check_cost : int; update_cost : int }

let default_config = { check_cost = 10; update_cost = 15 }

(* Tagged pointers: capability id in the bits above bit 38.  Simulated
   virtual addresses stay far below 2^38, and offsets added by workloads
   never carry into the tag. *)
let tag_shift = 38
let addr_mask = (1 lsl tag_shift) - 1
let untag p = p land addr_mask
let cap_of p = p lsr tag_shift
let tag addr cap = addr lor (cap lsl tag_shift)

type cap_info = { base : Addr.t; size : int; alloc_site : string; mutable free_site : string option }

type state = {
  config : config;
  heap : Heap.Freelist_malloc.t;
  gcs : (int, cap_info) Hashtbl.t;          (** live capabilities *)
  retired : (int, cap_info) Hashtbl.t;      (** for diagnostics *)
  mutable next_cap : int;
}

let charge machine n = Stats.count_instructions machine.Machine.stats n

let violation kind fault_addr info =
  let object_info =
    Option.map
      (fun (cap, i) ->
        {
          Shadow.Report.object_id = cap;
          size = i.size;
          offset = untag fault_addr - i.base;
          alloc_site = i.alloc_site;
          free_site = i.free_site;
        })
      info
  in
  raise (Shadow.Report.Violation { Shadow.Report.kind; fault_addr; object_info })

let malloc st machine ?(site = "<unknown>") size =
  charge machine st.config.update_cost;
  let base = Heap.Freelist_malloc.alloc st.heap size in
  let cap = st.next_cap in
  st.next_cap <- st.next_cap + 1;
  Hashtbl.replace st.gcs cap { base; size; alloc_site = site; free_site = None };
  tag base cap

let check st machine access p =
  charge machine st.config.check_cost;
  let cap = cap_of p in
  if not (Hashtbl.mem st.gcs cap) then begin
    let info =
      Option.map (fun i -> (cap, i)) (Hashtbl.find_opt st.retired cap)
    in
    match info with
    | Some _ -> violation (Shadow.Report.Use_after_free access) p info
    | None -> violation (Shadow.Report.Wild_access access) p None
  end

let free st machine ?(site = "<unknown>") p =
  charge machine st.config.update_cost;
  let cap = cap_of p in
  match Hashtbl.find_opt st.gcs cap with
  | Some info when info.base = untag p ->
    info.free_site <- Some site;
    Hashtbl.remove st.gcs cap;
    Hashtbl.replace st.retired cap info;
    Heap.Freelist_malloc.dealloc st.heap info.base
  | Some info -> violation Shadow.Report.Invalid_free p (Some (cap, info))
  | None ->
    (match Hashtbl.find_opt st.retired cap with
     | Some info -> violation Shadow.Report.Double_free p (Some (cap, info))
     | None -> violation Shadow.Report.Invalid_free p None)

let scheme ?(config = default_config) machine =
  let st =
    {
      config;
      heap = Heap.Freelist_malloc.create machine;
      gcs = Hashtbl.create 16;
      retired = Hashtbl.create 16;
      next_cap = 1;
    }
  in
  let rec scheme =
    lazy
      {
        Scheme.name = "capability";
        machine;
        malloc = (fun ?site size -> malloc st machine ?site size);
        free = (fun ?site p -> free st machine ?site p);
        load =
          (fun p ~width ->
            check st machine Perm.Read p;
            Mmu.load machine (untag p) ~width);
        store =
          (fun p ~width v ->
            check st machine Perm.Write p;
            Mmu.store machine (untag p) ~width v);
        pool_create =
          (fun ?elem_size:_ () ->
            Scheme.direct_pool (Lazy.force scheme));
        compute = (fun n -> charge machine n);
        extra_memory_bytes =
          (fun () ->
            (* GCS entry + side metadata per live capability, plus the
               retired set retained for diagnosis. *)
            (Hashtbl.length st.gcs * 48) + (Hashtbl.length st.retired * 16));
        guarantees_detection = true;
        introspection = Scheme.No_introspection;
      }
  in
  Lazy.force scheme
