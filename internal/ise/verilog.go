package ise

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// WriteVerilog emits a synthesizable combinational Verilog module for one
// selected instruction: the datapath of the cut, with one input port per
// cut input and one output port per cut output. It is the "last mile" of
// the automated-ISE story — the custom functional unit the customizable
// processor (§1) instantiates next to its ALU.
//
// The module is pure combinational logic over 32-bit two's-complement
// vectors; memory operations never appear inside cuts, so every operation
// maps to an expression.
func WriteVerilog(w io.Writer, g *dfg.Graph, cut enum.Cut, name string) error {
	return writeVerilog(w, g, cut.Nodes, cut.Inputs, cut.Outputs, name)
}

// writeVerilog builds the module in one buffer and hands it to w in one
// Write; a cut it cannot emit writes nothing.
func writeVerilog(w io.Writer, g *dfg.Graph, nodes *bitset.Set, inputs, outputs []int, name string) error {
	var bw bytes.Buffer
	if name == "" {
		name = "ise_unit"
	}

	portName := func(v int, prefix string) string {
		if n := g.Name(v); n != "" && isVerilogIdent(n) {
			return n
		}
		return fmt.Sprintf("%s%d", prefix, v)
	}
	wireName := func(v int) string { return fmt.Sprintf("n%d", v) }

	// Header.
	var ports []string
	for _, in := range inputs {
		ports = append(ports, fmt.Sprintf("input  wire signed [31:0] %s", portName(in, "in")))
	}
	for _, o := range outputs {
		ports = append(ports, fmt.Sprintf("output wire signed [31:0] %s_out", portName(o, "res")))
	}
	fmt.Fprintf(&bw, "// generated by polyise: custom instruction datapath\n")
	fmt.Fprintf(&bw, "module %s (\n    %s\n);\n", name, strings.Join(ports, ",\n    "))

	// Operand expression for a predecessor: an input port or an internal
	// wire.
	operand := func(p int) string {
		if nodes.Has(p) {
			return wireName(p)
		}
		return portName(p, "in")
	}

	for v := 0; v < g.N(); v++ {
		if !nodes.Has(v) {
			continue
		}
		preds := g.Preds(v)
		arg := func(i int) string { return operand(preds[i]) }
		var expr string
		switch g.Op(v) {
		case dfg.OpConst:
			expr = fmt.Sprintf("32'sd%d", g.ConstValue(v))
		case dfg.OpAdd:
			expr = fmt.Sprintf("%s + %s", arg(0), arg(1))
		case dfg.OpSub:
			expr = fmt.Sprintf("%s - %s", arg(0), arg(1))
		case dfg.OpMul:
			expr = fmt.Sprintf("%s * %s", arg(0), arg(1))
		case dfg.OpDiv:
			expr = fmt.Sprintf("%s / %s", arg(0), arg(1))
		case dfg.OpRem:
			expr = fmt.Sprintf("%s %% %s", arg(0), arg(1))
		case dfg.OpAnd:
			expr = fmt.Sprintf("%s & %s", arg(0), arg(1))
		case dfg.OpOr:
			expr = fmt.Sprintf("%s | %s", arg(0), arg(1))
		case dfg.OpXor:
			expr = fmt.Sprintf("%s ^ %s", arg(0), arg(1))
		case dfg.OpNot:
			expr = fmt.Sprintf("~%s", arg(0))
		case dfg.OpNeg:
			expr = fmt.Sprintf("-%s", arg(0))
		case dfg.OpShl:
			expr = fmt.Sprintf("%s <<< (%s & 32'sd31)", arg(0), arg(1))
		case dfg.OpShr:
			expr = fmt.Sprintf("$unsigned(%s) >> (%s & 32'sd31)", arg(0), arg(1))
		case dfg.OpSar:
			expr = fmt.Sprintf("%s >>> (%s & 32'sd31)", arg(0), arg(1))
		case dfg.OpCmpEQ:
			expr = fmt.Sprintf("{31'b0, %s == %s}", arg(0), arg(1))
		case dfg.OpCmpNE:
			expr = fmt.Sprintf("{31'b0, %s != %s}", arg(0), arg(1))
		case dfg.OpCmpLT:
			expr = fmt.Sprintf("{31'b0, %s < %s}", arg(0), arg(1))
		case dfg.OpCmpLE:
			expr = fmt.Sprintf("{31'b0, %s <= %s}", arg(0), arg(1))
		case dfg.OpSelect:
			expr = fmt.Sprintf("(%s != 32'sd0) ? %s : %s", arg(0), arg(1), arg(2))
		case dfg.OpMin:
			expr = fmt.Sprintf("(%s < %s) ? %s : %s", arg(0), arg(1), arg(0), arg(1))
		case dfg.OpMax:
			expr = fmt.Sprintf("(%s < %s) ? %s : %s", arg(0), arg(1), arg(1), arg(0))
		case dfg.OpAbs:
			expr = fmt.Sprintf("(%s < 32'sd0) ? -%s : %s", arg(0), arg(0), arg(0))
		default:
			return fmt.Errorf("ise: operation %v cannot be emitted as RTL", g.Op(v))
		}
		fmt.Fprintf(&bw, "    wire signed [31:0] %s = %s; // %s\n",
			wireName(v), expr, g.Op(v))
	}
	for _, o := range outputs {
		fmt.Fprintf(&bw, "    assign %s_out = %s;\n", portName(o, "res"), wireName(o))
	}
	bw.WriteString("endmodule\n")
	_, err := w.Write(bw.Bytes())
	return err
}

func isVerilogIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
