(** Plain-text table rendering for the benchmark harness and examples.

    The benchmark executable regenerates the paper's figures as aligned
    ASCII tables and series plots; this module is the shared renderer. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays the rows out in aligned columns with a
    separator line under the header. *)

val render_rows : header:string array -> string array array -> string
(** {!render} over rows of cells already in arrays, which {!render}
    builds and calls this with. *)

val print : header:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val sparkline : float array -> string
(** Unicode block-character sparkline of a series (min–max scaled). *)

val ascii_plot :
  ?height:int -> ?labels:string list -> float array list -> string
(** [ascii_plot series] draws one or more equal-length series as a crude
    character plot, one glyph per series; used to echo the curves of
    Figure 3 in the terminal. *)
