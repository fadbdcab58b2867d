(** The oracle's observation of a process: one byte per page over a
    list of [(addr, len)] ranges. Each backend fills the bytes from its
    own structures in one pass; the differential oracle compares them.

    A byte is [0] for an unmapped page. A mapped page has {!mapped} set,
    plus {!writable} when a store would succeed (a COW-protected page
    counts: the store succeeds after the break) and {!resident} when a
    physical frame backs it. No other bit is ever set. *)

val mapped : int
val writable : int
val resident : int

val code : writable:bool -> resident:bool -> char
(** The byte of a mapped page. *)

val make :
  page_size:int ->
  (int * int) list ->
  (Bytes.t -> off:int -> addr:int -> pages:int -> unit) ->
  string
(** [make ~page_size ranges fill] lays the ranges out in order, a range
    of [len] bytes taking [len / page_size] bytes, all [0]. It calls
    [fill buf ~off ~addr ~pages] for every range with at least one page,
    [off] being the range's first byte, and returns the filled buffer. *)
