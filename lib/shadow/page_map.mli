(** Sparse table keyed by virtual page number: the shadow layer's one
    page-keyed side table (object registry, pool ranges, epoch
    quarantine).

    Same shape as {!Vmm.Page_table}: an offset directory of lazily built
    64-entry chunks, so a lookup is two array reads with no hashing and
    no allocation.  Vacant slots hold the [empty] sentinel given at
    creation, compared {e physically} ([==]); storing [empty] is the
    same as {!remove}.  A fresh table allocates nothing until its first
    {!set}.  Pages must be non-negative. *)

type 'a t

val create : empty:'a -> 'a t

val find : 'a t -> int -> 'a
(** The value at a page, or [empty]. *)

val set : 'a t -> int -> 'a -> unit

val remove : 'a t -> int -> unit
(** Vacate a page; no-op if already vacant.  Never builds a chunk. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Visit every occupied page in ascending order.  [f] must not
    modify the table. *)

val fold_right : 'a t -> (int -> 'a -> 'b -> 'b) -> 'b -> 'b
(** [fold_right t f init] is [f p1 v1 (f p2 v2 (... (f pn vn init)))]
    over the occupied pages [p1 < p2 < ... < pn]: consing in [f] builds
    an ascending list.  Same restriction on [f] as {!iter}. *)

val reset : 'a t -> unit
(** Vacate everything and release the storage. *)
