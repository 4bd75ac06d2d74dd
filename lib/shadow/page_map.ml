(* A sparse page-indexed table, the shape of {!Vmm.Page_table}: an
   offset directory of lazily built chunks.  A lookup is two array
   reads — no hashing, no allocation — and a vacant slot holds the
   table's [empty] sentinel, compared physically.

   A fresh table allocates nothing: the directory is the empty array
   until the first [set], and a missing chunk is the empty array too.
   Chunks are 64 entries, not the page table's 256: a fork-per-connection
   server builds a registry and a pool per connection and writes one or
   two pages into each, so a chunk is paid for per connection.  The
   directory starts at two slots, its window beginning at the first
   chunk written, and grows by doubling towards whichever side a new
   chunk lies on. *)

let chunk_shift = 6
let chunk_size = 1 lsl chunk_shift
let chunk_mask = chunk_size - 1
let initial_dir = 2

type 'a t = {
  empty : 'a;
  mutable dir : 'a array array; (* [||] slots: chunk not built *)
  mutable lo : int; (* chunk index of [dir.(0)] *)
}

let create ~empty = { empty; dir = [||]; lo = 0 }

(* Widen the directory to cover chunk [d], at least doubling, with the
   new room on the side [d] lies on. *)
let cover t d =
  let len = Array.length t.dir in
  if len = 0 then begin
    t.dir <- Array.make initial_dir [||];
    t.lo <- d
  end
  else if d < t.lo || d >= t.lo + len then begin
    let hi = max (t.lo + len) (d + 1) in
    let n = ref (2 * len) in
    while !n < hi - min t.lo d do
      n := !n * 2
    done;
    let lo = if d < t.lo then max 0 (hi - !n) else t.lo in
    let dir = Array.make !n [||] in
    Array.blit t.dir 0 dir (t.lo - lo) len;
    t.dir <- dir;
    t.lo <- lo
  end

(* The built chunk holding [page], or [[||]]. *)
let chunk t page =
  let d = (page lsr chunk_shift) - t.lo in
  if d < 0 || d >= Array.length t.dir then [||] else Array.unsafe_get t.dir d

let find t page =
  let c = chunk t page in
  if Array.length c = 0 then t.empty
  else Array.unsafe_get c (page land chunk_mask)

let set t page v =
  cover t (page lsr chunk_shift);
  let d = (page lsr chunk_shift) - t.lo in
  let c =
    match t.dir.(d) with
    | [||] ->
      let c = Array.make chunk_size t.empty in
      t.dir.(d) <- c;
      c
    | c -> c
  in
  c.(page land chunk_mask) <- v

let remove t page =
  let c = chunk t page in
  if Array.length c > 0 then Array.unsafe_set c (page land chunk_mask) t.empty

let iter t f =
  let dir = t.dir in
  for d = 0 to Array.length dir - 1 do
    let c = dir.(d) in
    if Array.length c > 0 then begin
      let base = (t.lo + d) lsl chunk_shift in
      for i = 0 to chunk_size - 1 do
        let v = Array.unsafe_get c i in
        if v != t.empty then f (base lor i) v
      done
    end
  done

let fold_right t f init =
  let dir = t.dir in
  let acc = ref init in
  for d = Array.length dir - 1 downto 0 do
    let c = dir.(d) in
    if Array.length c > 0 then begin
      let base = (t.lo + d) lsl chunk_shift in
      for i = chunk_size - 1 downto 0 do
        let v = Array.unsafe_get c i in
        if v != t.empty then acc := f (base lor i) v !acc
      done
    end
  done;
  !acc

let reset t =
  t.dir <- [||];
  t.lo <- 0
