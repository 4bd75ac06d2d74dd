open Vmm

type state = { registry : Shadow.Object_registry.t; guard_pages : bool }

let malloc st machine ?(site = "<unknown>") size =
  if size <= 0 then invalid_arg "Efence.malloc: size <= 0";
  let data_pages = Addr.pages_spanning 0 size in
  let total_pages = data_pages + if st.guard_pages then 1 else 0 in
  (* Unlike the shadow scheme there is no canonical/shadow split: the one
     mapping owns its frames outright — that is exactly the flaw. *)
  let base = Kernel.mmap machine ~pages:total_pages in
  if st.guard_pages then
    Kernel.mprotect machine
      ~addr:(base + (data_pages * Addr.page_size))
      ~pages:1 Perm.No_access;
  (* Real Electric Fence places the object flush against the end of its
     page(s), so even a one-byte overrun lands on the guard page (at the
     price of leaving underruns uncaught). *)
  let user =
    if st.guard_pages then
      base + (data_pages * Addr.page_size) - ((size + 7) land lnot 7)
    else base
  in
  ignore
    (Shadow.Object_registry.register st.registry ~canonical:base
       ~shadow_base:base ~pages:data_pages ~user_addr:user ~size
       ~alloc_site:site);
  user

let free st machine ?(site = "<unknown>") addr =
  match Shadow.Object_registry.find_by_addr st.registry addr with
  | Some obj
    when obj.Shadow.Object_registry.user_addr = addr
         && obj.Shadow.Object_registry.state = Shadow.Object_registry.Live ->
    Kernel.mprotect machine ~addr:obj.Shadow.Object_registry.shadow_base
      ~pages:obj.Shadow.Object_registry.pages Perm.No_access;
    Shadow.Object_registry.mark_freed st.registry obj ~free_site:site
  | Some obj ->
    let kind =
      match obj.Shadow.Object_registry.state with
      | Shadow.Object_registry.Freed _ -> Shadow.Report.Double_free
      | Shadow.Object_registry.Live -> Shadow.Report.Invalid_free
    in
    raise
      (Shadow.Report.Violation
         {
           Shadow.Report.kind;
           fault_addr = addr;
           object_info = Some (Shadow.Detector.object_info obj);
         })
  | None ->
    raise
      (Shadow.Report.Violation
         {
           Shadow.Report.kind = Shadow.Report.Invalid_free;
           fault_addr = addr;
           object_info = None;
         })

let scheme ?(guard_pages = true) machine =
  let st = { registry = Shadow.Object_registry.create (); guard_pages } in
  let rec scheme =
    lazy
      {
        Scheme.name = "electric-fence";
        machine;
        malloc = (fun ?site size -> malloc st machine ?site size);
        free = (fun ?site a -> free st machine ?site a);
        load = Shadow.Detector.load st.registry ~in_free:false machine;
        store = Shadow.Detector.store st.registry machine;
        pool_create =
          (fun ?elem_size:_ () ->
            Scheme.direct_pool (Lazy.force scheme));
        compute = (fun n -> Stats.count_instructions machine.Machine.stats n);
        extra_memory_bytes = (fun () -> 0);
        guarantees_detection = true;
        introspection = Scheme.No_introspection;
      }
  in
  Lazy.force scheme
