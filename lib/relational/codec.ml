(* Binary serialization of values, tuples, and schemas — the wire format
   the storage engine writes into slotted pages.  Little-endian, length-
   prefixed, self-describing (each value carries a type tag), so a page
   record can be decoded without consulting the catalog. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- primitive writers ----------------------------------------------- *)

let add_u8 buf n = Buffer.add_uint8 buf (n land 0xff)
let add_u16 buf n = Buffer.add_uint16_le buf (n land 0xffff)
let add_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_bytes buf s =
  if String.length s > 0xffff then
    invalid_arg "Codec: string longer than 65535 bytes";
  add_u16 buf (String.length s);
  Buffer.add_string buf s

(* --- primitive readers (from a string, advancing a cursor) ------------ *)

let need s pos n what =
  if !pos + n > String.length s then
    corrupt "truncated %s at offset %d" what !pos

let read_u8 s pos =
  need s pos 1 "u8";
  let v = Char.code s.[!pos] in
  incr pos;
  v

let read_u16 s pos =
  need s pos 2 "u16";
  let v = String.get_uint16_le s !pos in
  pos := !pos + 2;
  v

let read_i64 s pos =
  need s pos 8 "i64";
  let v = Int64.to_int (String.get_int64_le s !pos) in
  pos := !pos + 8;
  v

let read_bytes s pos =
  let len = read_u16 s pos in
  need s pos len "string body";
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

(* --- values ----------------------------------------------------------- *)

let tag_of_ty = function
  | Value.TInt -> 0
  | Value.TString -> 1
  | Value.TFloat -> 2
  | Value.TBool -> 3

let ty_of_tag = function
  | 0 -> Value.TInt
  | 1 -> Value.TString
  | 2 -> Value.TFloat
  | 3 -> Value.TBool
  | n -> corrupt "unknown type tag %d" n

let add_value buf v =
  add_u8 buf (tag_of_ty (Value.type_of v));
  match v with
  | Value.Int n -> add_i64 buf n
  | Value.String s -> add_bytes buf s
  | Value.Float f -> Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Bool b -> add_u8 buf (if b then 1 else 0)

let read_value s pos =
  match read_u8 s pos with
  | 0 -> Value.Int (read_i64 s pos)
  | 1 -> Value.String (read_bytes s pos)
  | 2 ->
      need s pos 8 "float";
      let f = Int64.float_of_bits (String.get_int64_le s !pos) in
      pos := !pos + 8;
      Value.Float f
  | 3 -> Value.Bool (read_u8 s pos <> 0)
  | n -> corrupt "unknown value tag %d" n

(* --- tuples ------------------------------------------------------------ *)

let add_tuple buf t =
  add_u16 buf (Array.length t);
  Array.iter (add_value buf) t

let read_tuple s pos =
  let arity = read_u16 s pos in
  Array.init arity (fun _ -> read_value s pos)

let tuple_to_string t =
  let buf = Buffer.create 64 in
  add_tuple buf t;
  Buffer.contents buf

let tuple_of_string s =
  let pos = ref 0 in
  let t = read_tuple s pos in
  if !pos <> String.length s then corrupt "trailing bytes after tuple";
  t

(* --- tuples read in place ------------------------------------------------ *)

(* A view of one encoded tuple inside a larger buffer (a pinned page):
   [walk] validates the record exactly as tuple_of_string validates the
   same bytes, with the same messages, and records where each column's
   tag byte sits, so a predicate can be tested on the encoded values
   and only the records that pass are decoded.  [offs] only grows. *)
type view = { mutable buf : Bytes.t; mutable offs : int array; mutable arity : int }

let view () = { buf = Bytes.empty; offs = Array.make 8 0; arity = 0 }

(* [walk]'s bounds failures, worded as [need]'s, offsets from the
   record's start. *)
let truncated what ~off pos = corrupt "truncated %s at offset %d" what (pos - off)

let walk v b ~off ~len =
  let stop = off + len in
  if off + 2 > stop then truncated "u16" ~off off;
  let arity = Bytes.get_uint16_le b off in
  if arity > Array.length v.offs then v.offs <- Array.make arity 0;
  let offs = v.offs in
  let pos = ref (off + 2) in
  for i = 0 to arity - 1 do
    let p = !pos in
    offs.(i) <- p;
    if p + 1 > stop then truncated "u8" ~off p;
    pos :=
      match Bytes.get_uint8 b p with
      | 0 ->
          if p + 9 > stop then truncated "i64" ~off (p + 1);
          p + 9
      | 1 ->
          if p + 3 > stop then truncated "u16" ~off (p + 1);
          let n = p + 3 + Bytes.get_uint16_le b (p + 1) in
          if n > stop then truncated "string body" ~off (p + 3);
          n
      | 2 ->
          if p + 9 > stop then truncated "float" ~off (p + 1);
          p + 9
      | 3 ->
          if p + 2 > stop then truncated "u8" ~off (p + 1);
          p + 2
      | n -> corrupt "unknown value tag %d" n
  done;
  if !pos <> stop then corrupt "trailing bytes after tuple";
  v.buf <- b;
  v.arity <- arity

(* Column [i]'s offset; out of range fails as indexing the decoded
   tuple would. *)
let column_at v i =
  if i >= v.arity then invalid_arg "index out of bounds";
  v.offs.(i)

let value_at b p =
  match Bytes.get_uint8 b p with
  | 0 -> Value.Int (Int64.to_int (Bytes.get_int64_le b (p + 1)))
  | 1 -> Value.String (Bytes.sub_string b (p + 3) (Bytes.get_uint16_le b (p + 1)))
  | 2 -> Value.Float (Int64.float_of_bits (Bytes.get_int64_le b (p + 1)))
  | 3 -> Value.Bool (Bytes.get_uint8 b (p + 1) <> 0)
  | n -> corrupt "unknown value tag %d" n

let column v i = value_at v.buf (column_at v i)

(* String.compare on [len] bytes of [b] at [pos] against [s]. *)
let compare_bytes b pos len s =
  let n = String.length s in
  let m = Int.min len n in
  let rec go i =
    if i = m then Int.compare len n
    else
      let d = Char.compare (Bytes.get b (pos + i)) (String.get s i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

let compare_column v i c =
  let b = v.buf and p = column_at v i in
  match (Bytes.get_uint8 b p, c) with
  | 0, Value.Int n -> Int.compare (Int64.to_int (Bytes.get_int64_le b (p + 1))) n
  | 1, Value.String s -> compare_bytes b (p + 3) (Bytes.get_uint16_le b (p + 1)) s
  | 2, Value.Float f ->
      Float.compare (Int64.float_of_bits (Bytes.get_int64_le b (p + 1))) f
  | 3, Value.Bool x -> Bool.compare (Bytes.get_uint8 b (p + 1) <> 0) x
  | _ -> Value.compare (value_at b p) c

let tuple v =
  if v.arity = 0 then [||]
  else begin
    let t = Array.make v.arity (value_at v.buf v.offs.(0)) in
    for i = 1 to v.arity - 1 do
      t.(i) <- value_at v.buf v.offs.(i)
    done;
    t
  end

(* --- schemas ----------------------------------------------------------- *)

let add_schema buf schema =
  let pairs = Schema.pairs schema in
  add_u16 buf (List.length pairs);
  List.iter
    (fun (attr, ty) ->
      add_bytes buf attr;
      add_u8 buf (tag_of_ty ty))
    pairs

let read_schema s pos =
  let n = read_u16 s pos in
  let pairs =
    List.init n (fun _ ->
        let attr = read_bytes s pos in
        let ty = ty_of_tag (read_u8 s pos) in
        (attr, ty))
  in
  Schema.make pairs

let schema_to_string schema =
  let buf = Buffer.create 64 in
  add_schema buf schema;
  Buffer.contents buf

let schema_of_string s =
  let pos = ref 0 in
  let sc = read_schema s pos in
  if !pos <> String.length s then corrupt "trailing bytes after schema";
  sc
