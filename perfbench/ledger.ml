(* The simulated-cycle ledger, computed from outside the program: a
   machine's event counters are partitioned by cause and each part is
   priced with the machine's own [Vmm.Cost_model.t].  The parts must
   add up to [Vmm.Machine.cycles]; a gap means the partition dropped or
   double-counted an event, which is a benchmark bug. *)

type t = {
  compute : float;  (* instructions, loads and stores (and cache misses) *)
  gc_scan : float;  (* instructions Shadow.Gc charged for scanned words *)
  syscall : float;  (* every syscall kind, plus ranged shootdowns *)
  tlb : float;  (* TLB miss penalties *)
  fault : float;  (* trap delivery *)
}

let zero = { compute = 0.; gc_scan = 0.; syscall = 0.; tlb = 0.; fault = 0. }

let add a b =
  {
    compute = a.compute +. b.compute;
    gc_scan = a.gc_scan +. b.gc_scan;
    syscall = a.syscall +. b.syscall;
    tlb = a.tlb +. b.tlb;
    fault = a.fault +. b.fault;
  }

let total t = t.compute +. t.gc_scan +. t.syscall +. t.tlb +. t.fault

let shares t =
  let sum = total t in
  let f x = if sum > 0. then x /. sum else 0. in
  [
    ("syscall", f t.syscall);
    ("tlb", f t.tlb);
    ("fault", f t.fault);
    ("compute", f t.compute);
    ("gc_scan", f t.gc_scan);
  ]

(* Sum of five non-negative terms: each addition rounds by at most half
   an ulp of the running total, so the priced parts may differ from the
   one-pass price by a few ulps and by nothing more. *)
let rounding_slack cycles = 8. *. Float.epsilon *. Float.abs cycles

(* Partition [m]'s counters by cause.  Every counter lands in exactly
   one part ([compute] keeps the unpriced ones), which {!check}
   re-verifies field by field. *)
let of_machine ~gc_instructions (m : Vmm.Machine.t) =
  let s = Vmm.Stats.snapshot m.Vmm.Machine.stats in
  let z = Vmm.Stats.zero in
  let gc = { z with Vmm.Stats.instructions = gc_instructions } in
  let sys =
    {
      z with
      Vmm.Stats.syscalls_mmap = s.syscalls_mmap;
      syscalls_mremap = s.syscalls_mremap;
      syscalls_mprotect = s.syscalls_mprotect;
      syscalls_munmap = s.syscalls_munmap;
      syscalls_dummy = s.syscalls_dummy;
      tlb_shootdowns = s.tlb_shootdowns;
    }
  in
  let tlb = { z with Vmm.Stats.tlb_misses = s.tlb_misses } in
  let fault = { z with Vmm.Stats.faults = s.faults } in
  let compute =
    {
      s with
      Vmm.Stats.instructions = s.instructions - gc_instructions;
      syscalls_mmap = 0;
      syscalls_mremap = 0;
      syscalls_mprotect = 0;
      syscalls_munmap = 0;
      syscalls_dummy = 0;
      tlb_shootdowns = 0;
      tlb_misses = 0;
      faults = 0;
    }
  in
  let price = Vmm.Cost_model.cycles m.Vmm.Machine.cost in
  let t =
    {
      compute = price compute;
      gc_scan = price gc;
      syscall = price sys;
      tlb = price tlb;
      fault = price fault;
    }
  in
  let parts = List.fold_left Vmm.Stats.sum z [ compute; gc; sys; tlb; fault ] in
  let cycles = Vmm.Machine.cycles m in
  let error =
    if gc_instructions < 0 || gc_instructions > s.instructions then
      Some (Printf.sprintf "ledger: %d GC instructions of %d" gc_instructions
              s.instructions)
    else if parts <> s then Some "ledger: counter partition does not sum to the snapshot"
    else if Float.abs (total t -. cycles) > rounding_slack cycles then
      Some (Printf.sprintf "ledger: parts sum to %.17g, machine reports %.17g"
              (total t) cycles)
    else None
  in
  (t, error)
