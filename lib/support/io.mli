(** Binary-safe whole-file IO.

    Always opens in binary mode: page files and WALs are byte-exact, and
    even text inputs (Datalog programs, CSVs, DIMACS) must not have their
    line endings rewritten on non-Unix hosts. *)

val read_file : string -> string
(** Raises [Sys_error] when the file cannot be read. *)

val write_file : string -> string -> unit
(** Creates or truncates; raises [Sys_error] on failure. *)

val read_span : string -> from:int -> len:int -> string
(** Up to [len] bytes of a file from offset [from]: fewer when the file
    ends first, none when it does not exist. *)
