(** Q evaluation errors.

    kdb+ signals errors as terse symbols ('type, 'length, 'rank, ...); we
    keep the terse tag but also carry a human-readable explanation — the
    paper notes (Section 5) that more verbose errors are one of the ways a
    virtualization layer can improve on kdb+. *)

exception Q_error of { tag : string; detail : string }

let q_error tag fmt =
  Format.kasprintf (fun detail -> raise (Q_error { tag; detail })) fmt

let type_err fmt = q_error "type" fmt
let length_err fmt = q_error "length" fmt
let rank_err fmt = q_error "rank" fmt
let value_err fmt = q_error "value" fmt

let to_string = function
  | Q_error { tag; detail } -> Printf.sprintf "'%s (%s)" tag detail
  | e -> Printexc.to_string e
