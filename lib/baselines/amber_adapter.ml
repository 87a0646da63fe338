type t = Amber.Engine.t

let name = "amber"
let load triples = Amber.Engine.build triples
let engine t = t

let query ?timeout ?limit t ast = Amber.Engine.query ?timeout ?limit t ast
