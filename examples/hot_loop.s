; A counted loop hot enough for the functional engine's translated tier.
;
; 40 trips of ALU, bf16 and Qat-readout work.  When 20 trips are left, a
; store rewrites the loop's first instruction (`lex $3, 1` becomes the
; `lex $3, 3` copied from `donor`), so the loop's own code changes while
; it is hot.  Expected: $0 = 20*1 + 20*3 = 80, $3 = 3, $4 = 40 * 3.0 in
; bf16 (0x42f0 = 17136), and $5 = 17, the channels 40..1 of @0 whose
; bit 3 is set.
;
;   tangled run examples/hot_loop.s --sim functional
        had   @0, 3
        loadi $7, 40            ; trips left
        lex   $0, 0
        lex   $2, 3
        float $2                ; 3.0 in bf16
        lex   $4, 0
        float $4                ; bf16 accumulator
        lex   $5, 0             ; Qat readout accumulator
        lex   $12, 20           ; trips left when the store fires
        lex   $13, -1
        loadi $10, donor
        load  $11, $10          ; the replacement instruction word
        loadi $10, patch        ; where it goes
top:
patch:  lex   $3, 1
        add   $0, $3
        addf  $4, $2
        copy  $8, $7
        meas  $8, @0
        add   $5, $8
        add   $7, $13
        copy  $8, $7
        xor   $8, $12
        brt   $8, skip
        store $11, $10
skip:   brt   $7, top
        lex   $rv, 0
        sys
donor:  lex   $3, 3
