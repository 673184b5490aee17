(** SQL errors, tagged with PostgreSQL-style SQLSTATE codes so the wire
    protocol layer can emit faithful ErrorResponse messages. *)

exception Sql_error of { code : string; message : string }

let error code fmt =
  Format.kasprintf (fun message -> raise (Sql_error { code; message })) fmt

let syntax_error fmt = error "42601" fmt
let undefined_table fmt = error "42P01" fmt
let undefined_column fmt = error "42703" fmt
let undefined_function fmt = error "42883" fmt
let type_mismatch fmt = error "42804" fmt
let division_by_zero fmt = error "22012" fmt
let datetime_overflow fmt = error "22008" fmt
let invalid_text_representation fmt = error "22P02" fmt
let duplicate_table fmt = error "42P07" fmt
let feature_not_supported fmt = error "0A000" fmt

let to_string = function
  | Sql_error { code; message } -> Printf.sprintf "ERROR %s: %s" code message
  | e -> Printexc.to_string e
