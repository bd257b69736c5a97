// Command pccrecv receives one file over the PCC UDP transport.
//
// Usage:
//
//	pccrecv -listen :9000 -out received.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"pcc/internal/transport"
)

func main() {
	listen := flag.String("listen", ":9000", "UDP address to listen on")
	out := flag.String("out", "", "output file ('-' or empty = stdout)")
	flag.Parse()

	addr, err := net.ResolveUDPAddr("udp", *listen)
	if err != nil {
		log.Fatalf("pccrecv: %v", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		log.Fatalf("pccrecv: %v", err)
	}
	defer conn.Close()

	w := os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("pccrecv: %v", err)
		}
		defer f.Close()
		w = f
	}

	r := transport.NewReceiver(conn, w)
	// The receiver lingers after completion to answer retransmitted FINs
	// (its fin-ack may be lost); give it a grace window past Done, then
	// close the socket to stop Run.
	go func() {
		<-r.Done()
		time.Sleep(2 * time.Second)
		conn.Close()
	}()
	if err := r.Run(); err != nil {
		log.Fatalf("pccrecv: %v", err)
	}
	fmt.Fprintf(os.Stderr, "pccrecv: received %d bytes (%d packets, %d dropped beyond the reorder window)\n",
		r.BytesWritten(), r.UniquePackets(), r.BeyondWindow())
}
