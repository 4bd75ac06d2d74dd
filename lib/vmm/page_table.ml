(* A two-level radix table: a growable directory of fixed-size chunks of
   packed entries ({!Pte}).  Lookup is two array indexations — no
   hashing, no allocation — which is what lets the MMU's table walk (and
   the TLB-first fast path above it) stay at a handful of instructions.

   The directory covers a window of chunk indices starting at the first
   chunk mapped, and grows by doubling (in either direction) as the
   bump-allocated VA space grows; chunks materialise lazily, so sparse
   address spaces stay cheap.  Both stay small enough for the OCaml minor
   heap (a 256-entry chunk, a 16-entry directory to start with), so a
   short-lived machine's page table is never a major-heap allocation. *)

type entry = { frame : Frame_table.frame; perm : Perm.t }

let chunk_shift = 8
let chunk_size = 1 lsl chunk_shift (* 256 pages = 1 MiB of VA per chunk *)
let chunk_mask = chunk_size - 1

type t = {
  mutable dir : int array option array;
  mutable lo : int;     (* chunk index of [dir.(0)] *)
  mutable mapped : int; (* live entries, maintained incrementally *)
  mutable walks : int;  (* diagnostic: table walks performed *)
}

let create () = { dir = Array.make 16 None; lo = -1; mapped = 0; walks = 0 }

(* Widen the directory to cover chunk [d], at least doubling, with the
   new room on the side [d] lies on, so a run of chunks mapped in
   descending order grows it as rarely as an ascending one. *)
let cover t d =
  let len = Array.length t.dir in
  if t.lo < 0 then t.lo <- d
  else if d < t.lo || d >= t.lo + len then begin
    let hi = max (t.lo + len) (d + 1) in
    let n = ref (2 * len) in
    while !n < hi - min t.lo d do
      n := !n * 2
    done;
    let lo = if d < t.lo then max 0 (hi - !n) else t.lo in
    let dir = Array.make !n None in
    Array.blit t.dir 0 dir (t.lo - lo) len;
    t.dir <- dir;
    t.lo <- lo
  end

let slot_of t page = (page lsr chunk_shift) - t.lo

(* The chunk for [page], materialising it if needed. *)
let chunk_rw t page =
  cover t (page lsr chunk_shift);
  let d = slot_of t page in
  match t.dir.(d) with
  | Some c -> c
  | None ->
    let c = Array.make chunk_size Pte.none in
    t.dir.(d) <- Some c;
    c

(* Fast read-only lookup: the MMU's table walk. *)
let pte t ~page =
  t.walks <- t.walks + 1;
  let d = slot_of t page in
  if d < 0 || d >= Array.length t.dir then Pte.none
  else
    match Array.unsafe_get t.dir d with
    | None -> Pte.none
    | Some c -> Array.unsafe_get c (page land chunk_mask)

let map t stats ~page ~frame ~perm =
  let c = chunk_rw t page in
  let i = page land chunk_mask in
  if Pte.is_present c.(i) then
    invalid_arg (Printf.sprintf "Page_table.map: page %d already mapped" page);
  c.(i) <- Pte.make ~frame ~perm;
  t.mapped <- t.mapped + 1;
  Stats.count_page_mapped stats

let unmap t ~page =
  let d = slot_of t page in
  let missing () =
    invalid_arg (Printf.sprintf "Page_table.unmap: page %d not mapped" page)
  in
  if d < 0 || d >= Array.length t.dir then missing ()
  else
    match t.dir.(d) with
    | None -> missing ()
    | Some c ->
      let i = page land chunk_mask in
      let e = c.(i) in
      if not (Pte.is_present e) then missing ()
      else begin
        c.(i) <- Pte.none;
        t.mapped <- t.mapped - 1;
        { frame = Pte.frame e; perm = Pte.perm e }
      end

let lookup t ~page =
  let e = pte t ~page in
  if Pte.is_present e then Some { frame = Pte.frame e; perm = Pte.perm e }
  else None

let set_perm t ~page perm =
  let e = pte t ~page in
  if not (Pte.is_present e) then
    invalid_arg (Printf.sprintf "Page_table.set_perm: page %d not mapped" page)
  else
    match t.dir.(slot_of t page) with
    | Some c -> c.(page land chunk_mask) <- Pte.with_perm e perm
    | None ->
      failwith
        "Page_table.set_perm: present PTE in a missing directory chunk \
         (invariant: map installs the chunk before any PTE is present)"

(* Ranged protection change: walks each touched chunk once instead of
   re-indexing the directory per page.  All pages must be mapped (checked
   before any write, so a failed call changes nothing). *)
let set_perm_range t ~page ~pages perm =
  for p = page to page + pages - 1 do
    if not (Pte.is_present (pte t ~page:p)) then
      invalid_arg (Printf.sprintf "Page_table.set_perm: page %d not mapped" p)
  done;
  let p = ref page in
  let remaining = ref pages in
  while !remaining > 0 do
    let c =
      match t.dir.(slot_of t !p) with
      | Some c -> c
      | None ->
        failwith
          "Page_table.set_perm_range: present PTE in a missing directory \
           chunk (invariant: map installs the chunk before any PTE is \
           present)"
    in
    let i = !p land chunk_mask in
    let n = min !remaining (chunk_size - i) in
    for j = i to i + n - 1 do
      c.(j) <- Pte.with_perm c.(j) perm
    done;
    p := !p + n;
    remaining := !remaining - n
  done

let is_mapped t ~page = Pte.is_present (pte t ~page)
let mapped_pages t = t.mapped

let iter t f =
  Array.iteri
    (fun d chunk ->
      match chunk with
      | None -> ()
      | Some c ->
        Array.iteri
          (fun i e ->
            if Pte.is_present e then
              f (((t.lo + d) lsl chunk_shift) lor i)
                { frame = Pte.frame e; perm = Pte.perm e })
          c)
    t.dir

let walk_count t = t.walks
