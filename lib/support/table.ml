(* Column widths first; then every line has the same length (cells
   padded to their column's width, two spaces between columns, short
   rows padded with empty cells, a newline), so the table is one string
   of known size: filled with spaces, the cells, the separator's dashes
   and the newlines are written into it at their offsets. *)
let render_rows ~header rows =
  let ncols = ref (Array.length header) in
  Array.iter (fun r -> if Array.length r > !ncols then ncols := Array.length r) rows;
  let ncols = !ncols in
  let widths = Array.make ncols 0 in
  let measure r =
    for i = 0 to Array.length r - 1 do
      let len = String.length r.(i) in
      if len > widths.(i) then widths.(i) <- len
    done
  in
  measure header;
  Array.iter measure rows;
  let starts = Array.make ncols 0 in
  for i = 1 to ncols - 1 do
    starts.(i) <- starts.(i - 1) + widths.(i - 1) + 2
  done;
  let line = Array.fold_left ( + ) (2 * max 0 (ncols - 1) + 1) widths in
  let out = Bytes.make (line * (Array.length rows + 2)) ' ' in
  let add_row at r =
    for i = 0 to Array.length r - 1 do
      let s = r.(i) in
      Bytes.blit_string s 0 out (at + starts.(i)) (String.length s)
    done;
    Bytes.set out (at + line - 1) '\n'
  in
  add_row 0 header;
  for i = 0 to ncols - 1 do
    Bytes.fill out (line + starts.(i)) widths.(i) '-'
  done;
  Bytes.set out ((2 * line) - 1) '\n';
  Array.iteri (fun j r -> add_row ((j + 2) * line) r) rows;
  Bytes.unsafe_to_string out

let render ~header rows =
  render_rows ~header:(Array.of_list header) (Array.of_list (List.map Array.of_list rows))

let print ~header rows = print_string (render ~header rows)

let blocks = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline xs =
  if Array.length xs = 0 then ""
  else begin
    let lo, hi = Stats.min_max xs in
    let span = if hi = lo then 1. else hi -. lo in
    let buf = Buffer.create (Array.length xs * 3) in
    Array.iter
      (fun x ->
        let level = int_of_float ((x -. lo) /. span *. 8.) in
        Buffer.add_string buf blocks.(max 0 (min 8 level)))
      xs;
    Buffer.contents buf
  end

let ascii_plot ?(height = 12) ?labels series =
  match series with
  | [] -> ""
  | first :: _ ->
      let n = Array.length first in
      let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) s ->
            if Array.length s = 0 then (lo, hi)
            else
              let l, h = Stats.min_max s in
              (Float.min lo l, Float.max hi h))
          (Float.infinity, Float.neg_infinity)
          series
      in
      let span = if hi <= lo then 1. else hi -. lo in
      let grid = Array.make_matrix height n ' ' in
      List.iteri
        (fun si s ->
          let g = glyphs.(si mod Array.length glyphs) in
          Array.iteri
            (fun i x ->
              if i < n then begin
                let row =
                  height - 1
                  - int_of_float ((x -. lo) /. span *. float_of_int (height - 1))
                in
                let row = max 0 (min (height - 1) row) in
                grid.(row).(i) <- g
              end)
            s)
        series;
      let buf = Buffer.create (height * (n + 8)) in
      Array.iteri
        (fun r row ->
          let axis_val = hi -. (float_of_int r /. float_of_int (height - 1) *. span) in
          Buffer.add_string buf (Printf.sprintf "%7.1f |" axis_val);
          Array.iter (fun c -> Buffer.add_char buf c; Buffer.add_char buf ' ') row;
          Buffer.add_char buf '\n')
        grid;
      (match labels with
      | Some ls ->
          Buffer.add_string buf "         legend: ";
          List.iteri
            (fun i l ->
              Buffer.add_string buf
                (Printf.sprintf "%c=%s  " glyphs.(i mod Array.length glyphs) l))
            ls;
          Buffer.add_char buf '\n'
      | None -> ());
      Buffer.contents buf
