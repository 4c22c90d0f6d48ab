(** The metric-catalogue lint behind [dbmeta lint metrics]: checks the
    declared instruments ({!Obs.Registry.declared}) against the rows of
    the documented catalogue (docs/OBSERVABILITY.md) in both directions.

    Codes:
    - {b OB001} (error) — a declared instrument has no catalogue row;
      the docs are incomplete.
    - {b OB002} (warning) — a catalogue row names no declared
      instrument; the docs are stale.
    - {b OB003} (error) — a catalogue row's kind or unit disagrees with
      the declaration.

    A catalogue row is a markdown table row whose first cell is a
    backtick-quoted name, read as [| `name` | kind | unit | ... |].
    A trailing [*] segment names a family — [`fault.torn.*`] — which is
    declared under that same name, so names match exactly; prose
    documents nothing.  When the text has a [## Metric catalogue]
    heading, only that section (up to the next level-2 heading) is read,
    so the span table elsewhere in the file is not mistaken for
    metrics. *)

type input = { declared : Obs.Registry.row list; catalogue_text : string }
(** [declared] is normally [Obs.Registry.rows Obs.Registry.declared];
    [catalogue_text] is the markdown catalogue. *)

val passes : input Pass.t list
(** The suite [dbmeta lint metrics] drives through {!Pass.drive} — the
    same pipeline as every other lint subcommand. *)

val lint :
  declared:Obs.Registry.row list -> catalogue_text:string -> Diagnostic.t list
(** Runs {!passes}; returns sorted diagnostics (errors first). *)
