(** The trap handler: turns a raw MMU fault into a diagnosed temporal
    memory error, using the {!Object_registry}. *)

val object_info : Object_registry.obj -> Report.object_info
(** Diagnostic fields for an object (offset left 0). *)

val report : Object_registry.obj -> Report.kind -> Vmm.Addr.t -> Report.t
(** A report of [kind] at [addr] inside the object, offset filled in —
    what {!classify} builds for a trap, for software checks to raise. *)

val classify :
  Object_registry.t -> in_free:bool -> Vmm.Fault.t -> Report.t
(** Map a fault to a report.  [in_free] marks faults taken while reading
    a header inside [free] — those are double/invalid frees rather than
    use-after-free loads. *)

val load :
  Object_registry.t -> in_free:bool -> Vmm.Machine.t -> Vmm.Addr.t ->
  width:int -> int
(** [Vmm.Mmu.load], converting a {!Vmm.Fault.Trap} into a
    {!Report.Violation} with full diagnostics ({!classify}).  Allocates
    nothing unless it traps: the access path of the detecting schemes. *)

val store :
  Object_registry.t -> Vmm.Machine.t -> Vmm.Addr.t -> width:int -> int ->
  unit
(** [Vmm.Mmu.store] under the same trap handler, with [in_free:false]. *)
