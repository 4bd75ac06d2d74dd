(** Plain-text table rendering for the experiment reports: fixed-width
    columns, right-aligned numbers, a rule under the header. *)

type align =
  | Left
  | Right

val render :
  headers:string list -> ?aligns:align list -> string list list -> string
(** [render ~headers rows] lays the table out with one space of padding;
    [aligns] defaults to [Left] for the first column and [Right] for the
    rest. *)

val fmt_cycles : float -> string
(** Millions of cycles with two decimals, e.g. ["12.34"]. *)

val fmt_ratio : float -> string
(** Two-decimal ratio, e.g. ["1.04"]. *)

val fmt_bytes : int -> string
(** Human-scaled bytes, e.g. ["1.2 MiB"]. *)
