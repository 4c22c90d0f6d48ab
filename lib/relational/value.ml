type ty = TInt | TString | TFloat | TBool

type t = Int of int | String of string | Float of float | Bool of bool

exception Type_clash of string

let type_of = function
  | Int _ -> TInt
  | String _ -> TString
  | Float _ -> TFloat
  | Bool _ -> TBool

let ty_to_string = function
  | TInt -> "int"
  | TString -> "string"
  | TFloat -> "float"
  | TBool -> "bool"

let ty_of_string = function
  | "int" -> Some TInt
  | "string" -> Some TString
  | "float" -> Some TFloat
  | "bool" -> Some TBool
  | _ -> None

(* string_of_int interprets a format string on every call; this writes
   the digits straight into a string of the right length.  They are
   taken from the non-positive side, where min_int has a magnitude. *)
let int_to_string n =
  let m = if n < 0 then n else -n in
  let rec count m k = if m > -10 then k else count (m / 10) (k + 1) in
  let digits = count m 1 in
  let len = if n < 0 then digits + 1 else digits in
  let b = Bytes.create len in
  if n < 0 then Bytes.set b 0 '-';
  let m = ref m in
  for i = len - 1 downto len - digits do
    Bytes.set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  Bytes.unsafe_to_string b

let to_string = function
  | Int i -> int_to_string i
  | String s -> s
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

let to_literal = function
  | String s -> Printf.sprintf "%S" s
  | v -> to_string v

let pp fmt v = Format.pp_print_string fmt (to_string v)

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | String x, String y -> String.compare x y
  | Float x, Float y -> Float.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Int _ | String _ | Float _ | Bool _), _ ->
      raise
        (Type_clash
           (Printf.sprintf "cannot compare %s value %s with %s value %s"
              (ty_to_string (type_of a))
              (to_literal a)
              (ty_to_string (type_of b))
              (to_literal b)))

let tag_rank = function Int _ -> 0 | String _ -> 1 | Float _ -> 2 | Bool _ -> 3

let compare_poly a b =
  let ra = tag_rank a and rb = tag_rank b in
  if ra <> rb then Int.compare ra rb else compare a b

let equal a b = tag_rank a = tag_rank b && compare a b = 0

let parse ty s =
  match ty with
  | TInt -> int_of_string_opt s |> Option.map (fun i -> Int i)
  | TFloat -> float_of_string_opt s |> Option.map (fun f -> Float f)
  | TBool -> bool_of_string_opt s |> Option.map (fun b -> Bool b)
  | TString -> Some (String s)

let hash = function
  | Int i -> Hashtbl.hash (0, i)
  | String s -> Hashtbl.hash (1, s)
  | Float f -> Hashtbl.hash (2, f)
  | Bool b -> Hashtbl.hash (3, b)
