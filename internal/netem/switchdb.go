package netem

// CommoditySwitch records the priority-queue and ECN capabilities of a
// popular top-of-rack switch, per interface (Table 2 of the paper).
// PASE's deployability argument rests on these numbers: it needs only
// what this table offers.
type CommoditySwitch struct {
	Model  string
	Vendor string
	Queues int
	ECN    bool
}

// CommoditySwitches is Table 2 of the paper.
var CommoditySwitches = []CommoditySwitch{
	{Model: "BCM56820", Vendor: "Broadcom", Queues: 10, ECN: true},
	{Model: "G8264", Vendor: "IBM", Queues: 8, ECN: true},
	{Model: "7050S", Vendor: "Arista", Queues: 7, ECN: true},
	{Model: "EX3300", Vendor: "Juniper", Queues: 5, ECN: false},
	{Model: "S4810", Vendor: "Dell", Queues: 3, ECN: true},
}
