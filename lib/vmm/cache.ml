(* Set-associative, LRU per set.  A set is one small int array — its
   [ways] line tags, then their [ways] use stamps — built the first time
   the set is accessed, so a machine that touches a few lines pays for a
   few sets.  The LRU order is a monotonically increasing use stamp: a
   miss evicts the first way holding the smallest stamp. *)

type t = {
  sets : int array array; (* [unbuilt] until first accessed *)
  n_sets : int;
  ways : int;
  line_shift : int;
  line_bytes : int;
  mutable clock : int;
}

let invalid_line = -1
let unbuilt : int array = [||]

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ?(sets = 256) ?(ways = 4) ?(line_bytes = 64) () =
  {
    sets = Array.make sets unbuilt;
    n_sets = sets;
    ways;
    line_shift = log2 line_bytes;
    line_bytes;
    clock = 0;
  }

let set_for t index =
  let set = Array.unsafe_get t.sets index in
  if set != unbuilt then set
  else begin
    let set = Array.make (2 * t.ways) 0 in
    Array.fill set 0 t.ways invalid_line;
    t.sets.(index) <- set;
    set
  end

let rec find (set : int array) ways line i =
  if i >= ways then -1
  else if Array.unsafe_get set i = line then i
  else find set ways line (i + 1)

let rec lru (set : int array) ways i victim =
  if i >= ways then victim
  else
    lru set ways (i + 1)
      (if Array.unsafe_get set (ways + i) < Array.unsafe_get set (ways + victim)
       then i
       else victim)

let access t stats ~phys_addr =
  let line = phys_addr lsr t.line_shift in
  let set = set_for t (line mod t.n_sets) in
  let ways = t.ways in
  t.clock <- t.clock + 1;
  let hit = find set ways line 0 in
  if hit >= 0 then begin
    Array.unsafe_set set (ways + hit) t.clock;
    Stats.count_cache_hit stats
  end
  else begin
    Stats.count_cache_miss stats;
    let victim = lru set ways 1 0 in
    Array.unsafe_set set victim line;
    Array.unsafe_set set (ways + victim) t.clock
  end

let flush t =
  Array.iter
    (fun set -> if set != unbuilt then Array.fill set 0 t.ways invalid_line)
    t.sets

let resident_lines t =
  Array.fold_left
    (fun acc set ->
      if set == unbuilt then acc
      else
        List.filter (fun l -> l <> invalid_line)
          (Array.to_list (Array.sub set 0 t.ways))
        @ acc)
    [] t.sets
  |> List.sort compare

let capacity_bytes t = t.n_sets * t.ways * t.line_bytes
