let object_info (obj : Object_registry.obj) =
  {
    Report.object_id = obj.id;
    size = obj.size;
    offset = 0;
    alloc_site = obj.alloc_site;
    free_site =
      (match obj.state with
       | Object_registry.Live -> None
       | Object_registry.Freed { free_site } -> Some free_site);
  }

let report (obj : Object_registry.obj) kind addr =
  let info = { (object_info obj) with offset = addr - obj.user_addr } in
  { Report.kind; fault_addr = addr; object_info = Some info }

let classify registry ~in_free fault =
  let addr = Vmm.Fault.addr fault in
  let access = Vmm.Fault.access fault in
  match Object_registry.find_by_addr registry addr with
  | Some obj ->
    let kind =
      match obj.state, in_free with
      | Object_registry.Freed _, true -> Report.Double_free
      | Object_registry.Freed _, false -> Report.Use_after_free access
      | Object_registry.Live, true -> Report.Invalid_free
      | Object_registry.Live, false ->
        (* A protected page of a live object cannot arise in our scheme;
           report it as wild rather than mask a simulator bug. *)
        Report.Wild_access access
    in
    report obj kind addr
  | None ->
    let kind =
      if in_free then Report.Invalid_free else Report.Wild_access access
    in
    { Report.kind; fault_addr = addr; object_info = None }

(* The trap handler around one MMU access.  [match … with exception]
   rather than a thunk, so a guarded access allocates nothing. *)
let load registry ~in_free machine addr ~width =
  match Vmm.Mmu.load machine addr ~width with
  | v -> v
  | exception Vmm.Fault.Trap fault ->
    raise (Report.Violation (classify registry ~in_free fault))

let store registry machine addr ~width v =
  match Vmm.Mmu.store machine addr ~width v with
  | () -> ()
  | exception Vmm.Fault.Trap fault ->
    raise (Report.Violation (classify registry ~in_free:false fault))
