type 'a outcome = ('a, Fault_plan.error) result

let kind_of_call = function
  | Fault_plan.Mmap | Fault_plan.Mmap_fixed -> Stats.Sys_mmap
  | Fault_plan.Mremap -> Stats.Sys_mremap
  | Fault_plan.Mprotect -> Stats.Sys_mprotect
  | Fault_plan.Munmap -> Stats.Sys_munmap

let trace_fault (m : Machine.t) name error =
  if Telemetry.Sink.enabled m.trace then
    Telemetry.Sink.emit_always m.trace (fun () ->
        Telemetry.Event.Syscall_fault
          {
            name;
            errno =
              Fault_plan.errno_label
                (match error with
                 | Fault_plan.Transient e | Fault_plan.Fatal e -> e);
            transient = Fault_plan.is_transient error;
          })

(* An injected failure still crosses into the kernel (the real syscall
   returns -1 after doing the work of rejecting you), so it costs a
   kernel round trip: the per-kind syscall counter feeds the cost model
   exactly as a successful call would. *)
let inject (m : Machine.t) call name =
  match
    Fault_plan.decide m.fault_plan call ~va_bytes:(Machine.va_bytes_used m)
  with
  | None -> None
  | Some error ->
    Stats.count_syscall m.stats (kind_of_call call);
    Stats.count_syscall_failed m.stats;
    trace_fault m name error;
    Some error

(* The raw kernel layer rejects malformed requests (unaligned address,
   non-positive page count, pages outside the mapping) by raising
   [Invalid_argument]; at this boundary those become typed EINVAL
   results.  The kernel validates before mutating, so an EINVAL return
   leaves the machine unchanged. *)
let einval (m : Machine.t) name : 'a outcome =
  let error = Fault_plan.Fatal Fault_plan.Einval in
  Stats.count_syscall_failed m.stats;
  trace_fault m name error;
  Error error

(* Each call below runs its kernel operation inside a
   [match ... with exception Invalid_argument _], not through a
   thunk-taking helper, so a successful syscall allocates nothing but
   its [Ok]. *)
let mmap m ~pages =
  match inject m Fault_plan.Mmap "mmap" with
  | Some e -> Error e
  | None -> (
    match Kernel.mmap m ~pages with
    | v -> Ok v
    | exception Invalid_argument _ -> einval m "mmap")

let mmap_fixed m ~addr ~pages =
  match inject m Fault_plan.Mmap_fixed "mmap" with
  | Some e -> Error e
  | None -> (
    match Kernel.mmap_fixed m ~addr ~pages with
    | () -> Ok ()
    | exception Invalid_argument _ -> einval m "mmap")

let mremap_alias m ~src ~pages =
  match inject m Fault_plan.Mremap "mremap" with
  | Some e -> Error e
  | None -> (
    match Kernel.mremap_alias m ~src ~pages with
    | v -> Ok v
    | exception Invalid_argument _ -> einval m "mremap")

let mremap_alias_slab m ~src ~pages ~copies =
  match inject m Fault_plan.Mremap "mremap_slab" with
  | Some e -> Error e
  | None -> (
    match Kernel.mremap_alias_slab m ~src ~pages ~copies with
    | v -> Ok v
    | exception Invalid_argument _ -> einval m "mremap_slab")

let mremap_alias_at m ~src ~dst ~pages =
  match inject m Fault_plan.Mremap "mremap" with
  | Some e -> Error e
  | None -> (
    match Kernel.mremap_alias_at m ~src ~dst ~pages with
    | () -> Ok ()
    | exception Invalid_argument _ -> einval m "mremap")

let mprotect m ~addr ~pages perm =
  match inject m Fault_plan.Mprotect "mprotect" with
  | Some e -> Error e
  | None -> (
    match Kernel.mprotect m ~addr ~pages perm with
    | () -> Ok ()
    | exception Invalid_argument _ -> einval m "mprotect")

let munmap m ~addr ~pages =
  match inject m Fault_plan.Munmap "munmap" with
  | Some e -> Error e
  | None -> (
    match Kernel.munmap m ~addr ~pages with
    | () -> Ok ()
    | exception Invalid_argument _ -> einval m "munmap")

let ok_or_raise ~name = function
  | Ok v -> v
  | Error error -> raise (Fault_plan.Syscall_failure { name; error })

(* Pure range merging for batched retirement: sort page-aligned
   [(base, pages)] ranges and fuse adjacent or overlapping ones, so an
   epoch's worth of per-object protection flips becomes the minimum
   number of ranged calls.  No machine state is touched here — this is
   the planning half; the caller issues one syscall per merged run. *)
let coalesce_ranges ranges =
  let ranges =
    List.filter (fun ((_ : Addr.t), pages) -> pages > 0) ranges
  in
  let sorted =
    List.sort (fun (a, _) (b, _) -> compare (a : Addr.t) b) ranges
  in
  let fuse acc (base, pages) =
    match acc with
    | (cur_base, cur_pages) :: rest
      when base <= cur_base + (cur_pages * Addr.page_size) ->
      let cur_end = cur_base + (cur_pages * Addr.page_size) in
      let new_end = max cur_end (base + (pages * Addr.page_size)) in
      (cur_base, (new_end - cur_base) / Addr.page_size) :: rest
    | _ -> (base, pages) :: acc
  in
  List.rev (List.fold_left fuse [] sorted)
