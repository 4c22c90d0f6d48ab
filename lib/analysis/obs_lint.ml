(* The metric-catalogue lint: the single source of truth for metric
   names is docs/OBSERVABILITY.md, and this pass keeps it honest against
   the declarations ({!Obs.Registry.declared}) in both directions —
   every declared instrument must have a catalogue row (OB001), every
   row must name a declared instrument (OB002, catching stale docs after
   a rename), and a row's kind and unit must be the declared ones
   (OB003).

   The catalogue side is parsed structurally: a documented instrument is
   a table row whose first cell is a backtick-quoted name, read as
   [| name | kind | unit | ...].  A family such as [fault.torn.*] is
   declared and documented under that very name, so matching is exact
   and prose documents nothing. *)

(* The catalogue file also documents span names in a table of the same
   shape; those are not metrics and must not trip OB002.  When the text
   has a "Metric catalogue" level-2 heading, only that section (up to
   the next level-2 heading) is read; otherwise the whole text is the
   catalogue. *)
let catalogue_section lines =
  let is_h2 line = String.length line > 3 && String.sub line 0 3 = "## " in
  let is_catalogue_h2 line =
    is_h2 line && String.lowercase_ascii line = "## metric catalogue"
  in
  if not (List.exists is_catalogue_h2 lines) then lines
  else
    let in_section = ref false in
    List.filter
      (fun line ->
        if is_catalogue_h2 line then in_section := true
        else if is_h2 line then in_section := false;
        !in_section)
      lines

(* [| `name` | kind | unit | ...], cells trimmed; any other line, the
   header and separator rows among them, is not a row. *)
let row_of_line line =
  match List.map String.trim (String.split_on_char '|' line) with
  | "" :: name :: rest
    when String.length name > 2 && name.[0] = '`'
         && name.[String.length name - 1] = '`' ->
      let cell i = Option.value ~default:"" (List.nth_opt rest i) in
      Some
        {
          Obs.Registry.name = String.sub name 1 (String.length name - 2);
          kind = cell 0;
          unit = cell 1;
        }
  | _ -> None

let catalogue_rows text =
  List.filter_map row_of_line
    (catalogue_section (String.split_on_char '\n' text))

type input = { declared : Obs.Registry.row list; catalogue_text : string }

let run_lint { declared; catalogue_text } =
  let rows = catalogue_rows catalogue_text in
  let row_of name =
    List.find_opt (fun (r : Obs.Registry.row) -> r.name = name) rows
  in
  let against_rows =
    List.filter_map
      (fun (d : Obs.Registry.row) ->
        match row_of d.name with
        | None ->
            Some
              (Diagnostic.error ~subject:d.name "OB001"
                 (Printf.sprintf
                    "metric %S is declared but has no catalogue row" d.name))
        | Some r when r.kind <> d.kind || r.unit <> d.unit ->
            Some
              (Diagnostic.error ~subject:d.name "OB003"
                 (Printf.sprintf
                    "metric %S is declared as a %s in %S but its catalogue row \
                     says a %s in %S"
                    d.name d.kind d.unit r.kind r.unit))
        | Some _ -> None)
      declared
  in
  let stale =
    List.filter_map
      (fun (r : Obs.Registry.row) ->
        if List.exists (fun (d : Obs.Registry.row) -> d.name = r.name) declared
        then None
        else
          Some
            (Diagnostic.warning ~subject:r.name "OB002"
               (Printf.sprintf
                  "catalogue row %S names no declared metric (stale name?)"
                  r.name)))
      rows
  in
  Diagnostic.sort (against_rows @ stale)

let passes = [ Pass.make "metric-catalogue" run_lint ]

let lint ~declared ~catalogue_text =
  Pass.run_all passes { declared; catalogue_text }
