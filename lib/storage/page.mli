(** Slotted pages over raw bytes — the classic layout: records grow up
    from the header, the slot directory grows down from the end, and a
    deleted slot keeps its index (so record ids stay stable) but is marked
    dead.  The first four bytes carry a CRC32 of the rest of the page,
    written on flush ({!seal}) and verified on read ({!check}). *)

val size : int
(** Fixed page size in bytes (4096). *)

type t = Bytes.t
(** Always exactly {!size} bytes. *)

exception Page_full

val init : kind:int -> t
(** A fresh, formatted, empty page. *)

val kind : t -> int
(** The page kind tag it was {!init}ialized with (see {!Heap}). *)

val lsn : t -> int
(** The stored page LSN; see {!set_lsn}. *)

val set_lsn : t -> int -> unit
(** Page LSN: the newest logged update applied to this page.  [set_lsn]
    is monotone (keeps the max), which is what the ARIES redo test
    needs. *)

val next : t -> int
val set_next : t -> int -> unit
(** Chain link to the next page id; 0 means end of chain. *)

val nslots : t -> int
(** Slot-directory size, dead slots included. *)

val free_space : t -> int
(** Bytes left between the record heap and the slot directory. *)

val insert : t -> string -> int
(** Appends a record, returns its slot id.  Raises {!Page_full} when the
    record plus a slot entry does not fit, [Invalid_argument] when the
    record could never fit a page. *)

val read_slot : t -> int -> string option
(** [None] for a dead (deleted) slot. *)

val overwrite : t -> int -> string -> bool
(** In-place update; only same-length rewrites are supported ([false]
    otherwise — callers then delete + reinsert). *)

val delete_slot : t -> int -> unit
(** Mark the slot dead (its index stays allocated). *)

val records : t -> (int * string) list
(** Live records with their slot ids, in slot order. *)

val iter_live : t -> (int -> off:int -> len:int -> unit) -> unit
(** [iter_live p f] calls [f slot ~off ~len] on each live record of
    [p], in slot order, with the record's place in [p] — no copy.
    Raises [Invalid_argument] on a slot that points past the page. *)

val seal : t -> unit
(** Compute and store the CRC (call just before writing to disk). *)

val check : t -> bool
(** Verify the stored CRC (call just after reading from disk). *)
