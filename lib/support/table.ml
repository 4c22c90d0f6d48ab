(* Column widths first, then every line written straight into one
   buffer sized for the whole table: cells padded with a shared run of
   spaces, two spaces between columns, short rows padded with empty
   cells. *)
let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let widest = Array.fold_left max 0 widths in
  let line = Array.fold_left ( + ) (2 * max 0 (ncols - 1) + 1) widths in
  let buf = Buffer.create (line * (List.length all + 1)) in
  let spaces = String.make widest ' ' and dashes = String.make widest '-' in
  let cell i fill len s =
    if i > 0 then Buffer.add_string buf "  ";
    Buffer.add_string buf s;
    Buffer.add_substring buf fill 0 (widths.(i) - len)
  in
  let add_row r =
    let n = List.fold_left (fun i s -> cell i spaces (String.length s) s; i + 1) 0 r in
    for i = n to ncols - 1 do
      cell i spaces 0 ""
    done;
    Buffer.add_char buf '\n'
  in
  add_row header;
  for i = 0 to ncols - 1 do
    cell i dashes 0 ""
  done;
  Buffer.add_char buf '\n';
  List.iter add_row rows;
  Buffer.contents buf

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
