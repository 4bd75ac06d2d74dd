let granule = 16
let tag_shift = 48
let addr_mask = (1 lsl tag_shift) - 1

(* The pointer carries a wide 15-bit generation (bits 48-62); the
   hardware-realistic check masks it down to [tag_bits].  Wide-equal
   means genuinely fresh; masked-equal-but-wide-unequal is a wraparound
   pass we can attribute exactly. *)
let wide_bits = 15
let wide_mask = (1 lsl wide_bits) - 1

type chunk = {
  id : int;
  base : Vmm.Addr.t;
  size : int;
  alloc_site : string;
  mutable free_site : string option;
  mutable live : bool;
}

type entry = {
  mutable gen : int;  (* full, unwrapped generation of this granule *)
  mutable owner : chunk option;
}

type stats = {
  tag_checks : int;
  tag_faults : int;
  generation_wraps : int;
  wrap_masked_passes : int;
  table_bytes : int;
  live_chunks : int;
}

type t = {
  machine : Vmm.Machine.t;
  tag_bits : int;
  tag_mask : int;
  check_cost : int;
  entry_bytes : int;  (* modeled: bytes of tag storage per granule *)
  table : (int, entry) Hashtbl.t;  (* granule index -> entry *)
  mutable next_id : int;
  mutable tag_checks : int;
  mutable tag_faults : int;
  mutable generation_wraps : int;
  mutable wrap_masked_passes : int;
  mutable granules_touched : int;  (* distinct granules ever entered *)
  mutable live : int;
}

let create ?(tag_bits = 8) ?(check_cost = 4) machine =
  if tag_bits < 1 || tag_bits > wide_bits then
    invalid_arg "Tag_table.create: tag_bits must be in 1..15";
  {
    machine;
    tag_bits;
    tag_mask = (1 lsl tag_bits) - 1;
    check_cost;
    entry_bytes = (tag_bits + 7) / 8;
    table = Hashtbl.create 16;
    next_id = 0;
    tag_checks = 0;
    tag_faults = 0;
    generation_wraps = 0;
    wrap_masked_passes = 0;
    granules_touched = 0;
    live = 0;
  }

let untag p = p land addr_mask
let tag_of p = (p lsr tag_shift) land wide_mask
let with_tag addr gen = untag addr lor ((gen land wide_mask) lsl tag_shift)
let granule_index addr = addr / granule
let span_indices ~base ~size =
  (granule_index base, granule_index (base + size - 1))

let entry_at t idx = Hashtbl.find_opt t.table idx

let ensure_entry t idx =
  match Hashtbl.find_opt t.table idx with
  | Some e -> e
  | None ->
    let e = { gen = 0; owner = None } in
    Hashtbl.add t.table idx e;
    t.granules_touched <- t.granules_touched + 1;
    e

let charge_check t =
  t.tag_checks <- t.tag_checks + 1;
  Vmm.Stats.count_instructions t.machine.Vmm.Machine.stats t.check_cost

let object_info t ~addr (c : chunk) =
  ignore t;
  {
    Shadow.Report.object_id = c.id;
    size = c.size;
    offset = addr - c.base;
    alloc_site = c.alloc_site;
    free_site = c.free_site;
  }

let violation kind ~addr info =
  Shadow.Report.Violation
    { Shadow.Report.kind; fault_addr = addr; object_info = info }

let register t ~base ~size ~site =
  if size <= 0 then invalid_arg "Tag_table.register: size must be positive";
  if base land (granule - 1) <> 0 then
    (* Freelist payloads are 16-byte aligned (header 16, size classes
       multiples of 16); a misaligned base would let two chunks share a
       granule and corrupt each other's generations. *)
    invalid_arg "Tag_table.register: base not granule-aligned";
  let lo, hi = span_indices ~base ~size in
  let max_gen = ref 0 in
  for idx = lo to hi do
    let e = ensure_entry t idx in
    if e.gen > !max_gen then max_gen := e.gen
  done;
  let c =
    { id = t.next_id; base; size; alloc_site = site; free_site = None;
      live = true }
  in
  t.next_id <- t.next_id + 1;
  for idx = lo to hi do
    let e = ensure_entry t idx in
    e.gen <- !max_gen;
    e.owner <- Some c
  done;
  t.live <- t.live + 1;
  with_tag base !max_gen

let check_access t ptr ~access =
  let addr = untag ptr in
  match entry_at t (granule_index addr) with
  | None | Some { owner = None; _ } -> None
  | Some ({ owner = Some c; _ } as e) ->
    charge_check t;
    let ptr_gen = tag_of ptr in
    if ptr_gen land t.tag_mask <> e.gen land t.tag_mask then begin
      t.tag_faults <- t.tag_faults + 1;
      raise
        (violation (Shadow.Report.Tag_mismatch access) ~addr
           (Some (object_info t ~addr c)))
    end
    else begin
      if ptr_gen <> e.gen land wide_mask then
        (* Masked tags agree but the wide generations differ: the stale
           pointer slipped through a tag-width wraparound.  Real
           hardware misses this access; we let it proceed and count it
           so the differential oracle can attribute the asymmetry. *)
        t.wrap_masked_passes <- t.wrap_masked_passes + 1;
      Some addr
    end

let bump_chunk t (c : chunk) ~site =
  c.live <- false;
  c.free_site <- Some site;
  t.live <- t.live - 1;
  let lo, hi = span_indices ~base:c.base ~size:c.size in
  for idx = lo to hi do
    let e = ensure_entry t idx in
    e.gen <- e.gen + 1;
    if e.gen land t.tag_mask = 0 then
      t.generation_wraps <- t.generation_wraps + 1
  done

let free t ptr ~site =
  let addr = untag ptr in
  charge_check t;
  match entry_at t (granule_index addr) with
  | None | Some { owner = None; _ } ->
    raise (violation Shadow.Report.Invalid_free ~addr None)
  | Some ({ owner = Some c; _ } as e) ->
    if addr <> c.base then
      raise
        (violation Shadow.Report.Invalid_free ~addr
           (Some (object_info t ~addr c)))
    else begin
      let ptr_gen = tag_of ptr in
      let masked_ok = ptr_gen land t.tag_mask = e.gen land t.tag_mask in
      if (not masked_ok) || not c.live then begin
        t.tag_faults <- t.tag_faults + (if masked_ok then 0 else 1);
        raise
          (violation Shadow.Report.Double_free ~addr
             (Some (object_info t ~addr c)))
      end;
      if ptr_gen <> e.gen land wide_mask then
        (* Wrapped stale free: hardware would free the current
           occupant.  Count the miss, then proceed as hardware would. *)
        t.wrap_masked_passes <- t.wrap_masked_passes + 1;
      bump_chunk t c ~site;
      addr
    end

let owns t addr =
  match entry_at t (granule_index (untag addr)) with
  | Some { owner = Some _; _ } -> true
  | None | Some { owner = None; _ } -> false

let release t ~base ~size =
  if size > 0 then begin
    let lo, hi = span_indices ~base ~size in
    for idx = lo to hi do
      match entry_at t idx with
      | None -> ()
      | Some e ->
        (match e.owner with
         | Some c when c.live && c.base >= base && c.base < base + size ->
           c.live <- false;
           t.live <- t.live - 1
         | _ -> ());
        e.owner <- None
    done
  end

let live_chunks t = t.live

let stats t =
  {
    tag_checks = t.tag_checks;
    tag_faults = t.tag_faults;
    generation_wraps = t.generation_wraps;
    wrap_masked_passes = t.wrap_masked_passes;
    table_bytes = t.granules_touched * t.entry_bytes;
    live_chunks = t.live;
  }
